package htmlx

import (
	"reflect"
	"strings"
	"testing"
)

// tokenizeReference is the tokenizer as it was before text tokens became
// substrings of the source: every text run is copied byte by byte into a
// builder. FuzzParseTables holds Tokenize to it token for token.
func tokenizeReference(src string) []Token {
	var toks []Token
	emit := func(tok Token) { toks = append(toks, tok) }
	i, n := 0, len(src)
	var text strings.Builder
	flushText := func() {
		if text.Len() > 0 {
			emit(Token{Kind: TokenText, Text: DecodeEntities(text.String())})
			text.Reset()
		}
	}
	for i < n {
		c := src[i]
		if c != '<' {
			text.WriteByte(c)
			i++
			continue
		}
		if strings.HasPrefix(src[i:], "<!--") {
			flushText()
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				break
			}
			i += 4 + end + 3
			continue
		}
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			flushText()
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		end := strings.IndexByte(src[i:], '>')
		if end < 0 {
			text.WriteString(src[i:])
			break
		}
		raw := src[i+1 : i+end]
		i += end + 1
		flushText()
		tok, ok := parseTag(raw)
		if !ok {
			continue
		}
		emit(tok)
		if tok.Kind == TokenStartTag && !tok.SelfClosing && (tok.Name == "script" || tok.Name == "style") {
			closer := "</" + tok.Name
			idx := strings.Index(strings.ToLower(src[i:]), closer)
			if idx < 0 {
				break
			}
			i += idx
		}
	}
	flushText()
	return toks
}

// FuzzParseTables holds the substring tokenizer to tokenizeReference, the
// tables built from its tokens to those built from the reference tokens,
// and CollapseSpace's uncopied fast path to strings.Fields. The seed corpus
// in testdata/fuzz/FuzzParseTables holds the running example, a scan-text
// conversion and the tokenizer's edge cases: unterminated comment and
// doctype, unclosed script, trailing '<' and entities inside text.
func FuzzParseTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		want := tokenizeReference(src)
		if got := Tokenize(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q)\n got %+v\nwant %+v", src, got, want)
		}
		ref := buildTables(func(emit func(Token)) {
			for _, tok := range want {
				emit(tok)
			}
		})
		got := ParseTables(src)
		if len(got) != len(ref) {
			t.Fatalf("ParseTables(%q): %d tables, reference %d", src, len(got), len(ref))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Grid(), ref[i].Grid()) {
				t.Fatalf("ParseTables(%q) table %d:\n got %s\nwant %s", src, i, got[i], ref[i])
			}
		}
		for _, s := range append([]string{src}, tokenTexts(want)...) {
			if got, want := CollapseSpace(s), strings.Join(strings.Fields(s), " "); got != want {
				t.Fatalf("CollapseSpace(%q) = %q, want %q", s, got, want)
			}
		}
	})
}

func tokenTexts(toks []Token) []string {
	var out []string
	for _, tok := range toks {
		if tok.Kind == TokenText {
			out = append(out, tok.Text)
		}
	}
	return out
}

// TestTokenizeTextRunsOnce pins the tokenizer's edge cases: wherever a scan
// stops early or skips a construct, each text run is emitted exactly once,
// decoded, and nothing after the stop leaks out.
func TestTokenizeTextRunsOnce(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"a<!-- never closed <td>b</td>", []string{"a"}},
		{"a<!DOCTYPE html b", []string{"a"}},
		{"a<script>b<td>c</td>", []string{"a"}},
		{"a<style>b</STYLE>c", []string{"a", "c"}},
		{"a<b>c<", []string{"a", "c<"}},
		{"a<b>c<td x='1'", []string{"a", "c<td x='1'"}},
		{"<", []string{"<"}},
		{"x &amp; y&lt;z&#65;&bogus;<b>&nbsp;", []string{"x & y<zA&bogus;", " "}},
		{"a< >b<>c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got := tokenTexts(Tokenize(c.src))
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) texts = %q, want %q", c.src, got, c.want)
		}
		if ref := tokenTexts(tokenizeReference(c.src)); !reflect.DeepEqual(got, ref) {
			t.Errorf("Tokenize(%q) texts = %q, reference %q", c.src, got, ref)
		}
	}
}

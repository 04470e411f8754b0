package lexicon

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"beginning cash", "bgnning cesh", 3}, // the paper's Example 13 slip
	}
	for _, tc := range tests {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDamerauLevenshtein(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"abcd", "abdc", 1}, // one transposition
		{"abcd", "abcd", 0},
		{"ca", "abc", 3}, // restricted Damerau classic
		{"receipts", "reciepts", 1},
		{"", "ab", 2},
	}
	for _, tc := range tests {
		if got := DamerauLevenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("DamerauLevenshtein(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	symmetric := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, cfg); err != nil {
		t.Error("identity:", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Error("triangle inequality:", err)
	}
	damerauLeq := func(a, b string) bool { return DamerauLevenshtein(a, b) <= Levenshtein(a, b) }
	if err := quick.Check(damerauLeq, cfg); err != nil {
		t.Error("Damerau <= Levenshtein:", err)
	}
}

// TestLevenshteinRowBuffers pins Levenshtein against the full dynamic
// programming matrix on both sides of the 64-byte stack-buffer cut-off.
func TestLevenshteinRowBuffers(t *testing.T) {
	matrix := func(a, b string) int {
		d := make([][]int, len(a)+1)
		for i := range d {
			d[i] = make([]int, len(b)+1)
			d[i][0] = i
		}
		for j := range d[0] {
			d[0][j] = j
		}
		for i := 1; i <= len(a); i++ {
			for j := 1; j <= len(b); j++ {
				cost := 1
				if a[i-1] == b[j-1] {
					cost = 0
				}
				d[i][j] = min3(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			}
		}
		return d[len(a)][len(b)]
	}
	rng := rand.New(rand.NewSource(2))
	word := func() string {
		b := make([]byte, rng.Intn(140))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return string(b)
	}
	for n := 0; n < 300; n++ {
		a, b := word(), word()
		if got, want := Levenshtein(a, b), matrix(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

// TestNormalizeFastPath checks that strings Normalize returns unchanged are
// exactly those the full lower-case-and-collapse form leaves unchanged.
func TestNormalizeFastPath(t *testing.T) {
	full := func(s string) string { return strings.Join(strings.Fields(strings.ToLower(s)), " ") }
	cases := []string{"", " ", "a", "a b", "a  b", " a", "a ", "A", "a\tb", "a\nb", "caf\u00e9", "a\u00a0b", "a\u0085b", "Cash Sales", "cash sales"}
	const alphabet = "aZ \t\n\r\v\f\xc3\xa9" // é split into its two UTF-8 bytes
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 2000; n++ {
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		if got, want := Normalize(s), full(s); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, want)
		}
	}
}

func TestSimilarity(t *testing.T) {
	if s := Similarity("beginning cash", "Beginning   Cash"); s != 1 {
		t.Errorf("normalized identical strings: %v", s)
	}
	if s := Similarity("", ""); s != 1 {
		t.Errorf("empty strings: %v", s)
	}
	s := Similarity("bgnning cesh", "beginning cash")
	if s <= 0.7 || s >= 1 {
		t.Errorf("Similarity(bgnning cesh, beginning cash) = %v, want in (0.7, 1)", s)
	}
	if s := Similarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint strings: %v", s)
	}
	prop := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1 && math.Abs(s-Similarity(b, a)) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestDomainBestMatch(t *testing.T) {
	d := NewDomain("Subsection",
		"beginning cash", "cash sales", "receivables", "total cash receipts")
	if !d.Contains("Beginning Cash") {
		t.Error("Contains should normalize")
	}
	if d.Contains("nope") {
		t.Error("Contains(nope)")
	}
	m, ok := d.BestMatch("bgnning cesh")
	if !ok || m.Item != "beginning cash" {
		t.Errorf("BestMatch = %+v, %v", m, ok)
	}
	if m.Score <= 0.7 {
		t.Errorf("score = %v", m.Score)
	}
	m, _ = d.BestMatch("cash sales")
	if m.Score != 1 {
		t.Errorf("exact match score = %v", m.Score)
	}
	if _, ok := NewDomain("empty").BestMatch("x"); ok {
		t.Error("empty domain should report no match")
	}
	// Add is idempotent under normalization.
	d.Add("CASH SALES")
	if len(d.Items()) != 4 {
		t.Errorf("Items = %v", d.Items())
	}
}

// bestMatchScan is BestMatch without the index: Similarity against every
// item in insertion order, the earliest of the highest scores winning.
func bestMatchScan(d *Domain, s string) (Match, bool) {
	items := d.Items()
	if len(items) == 0 {
		return Match{}, false
	}
	best := Match{Score: -1}
	for _, it := range items {
		if sc := Similarity(s, it); sc > best.Score {
			best = Match{Item: it, Score: sc}
		}
	}
	return best, true
}

// TestBestMatchExactHitMatchesScan holds BestMatch, whose exact hits come
// from the normalized index, to a brute-force Similarity scan: on queries
// that are items up to case and white space, on near misses, on the empty
// query, and on domains holding the empty item and items that differ only
// in case (which Add folds into one).
func TestBestMatchExactHitMatchesScan(t *testing.T) {
	domains := []*Domain{
		NewDomain("Subsection", "beginning cash", "cash sales", "receivables", "total cash receipts",
			"payment of accounts", "capital expenditure", "net cash inflow", "ending cash balance"),
		NewDomain("Section", "Receipts", "Disbursements", "Balance", "RECEIPTS", " receipts "),
		NewDomain("Spaced", "  Long  Term\tFinancing ", "long-term financing", "a", "b", "ab"),
		NewDomain("WithEmpty", "", "x", "X ", "xy"),
		NewDomain("Unicode", "Ébène", "ébène", "straße", "STRASSE"),
		NewDomain("Empty"),
	}
	queries := []string{
		"", " ", "\t\n", "beginning cash", "BEGINNING CASH", "  beginning\t cash ", "bgnning cesh",
		"Receipts", "receipts", " RECEIPTS", "Reciepts", "balance", "long term financing",
		"Long Term Financing", "long-term  financing", "a", "A", "ab", "ba", "x", "X", "xy", "yx",
		"ébène", "ÉBÈNE", "Straße", "strasse", "zzz",
	}
	for _, d := range domains {
		for _, q := range queries {
			got, gotOK := d.BestMatch(q)
			want, wantOK := bestMatchScan(d, q)
			if got != want || gotOK != wantOK {
				t.Errorf("%s.BestMatch(%q) = %+v, %v; scan gives %+v, %v", d.Name, q, got, gotOK, want, wantOK)
			}
		}
	}
	// Random queries built from item fragments, case flips and spaces.
	rng := rand.New(rand.NewSource(23))
	alphabet := []string{"a", "B", "c", "ash", " ", "  ", "\t", "Cash", "sales", "e", "-"}
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		q := b.String()
		for _, d := range domains {
			got, _ := d.BestMatch(q)
			if want, _ := bestMatchScan(d, q); got != want {
				t.Fatalf("%s.BestMatch(%q) = %+v; scan gives %+v", d.Name, q, got, want)
			}
		}
	}
}

func TestHierarchy(t *testing.T) {
	h := NewHierarchy()
	h.AddSpecialization("beginning cash", "Receipts")
	h.AddSpecialization("cash sales", "Receipts")
	h.AddSpecialization("Receipts", "CashBudgetEntry")
	if !h.IsSpecializationOf("beginning cash", "Receipts") {
		t.Error("direct specialization")
	}
	if !h.IsSpecializationOf("beginning cash", "CashBudgetEntry") {
		t.Error("transitive specialization")
	}
	if h.IsSpecializationOf("Receipts", "beginning cash") {
		t.Error("reverse direction must fail")
	}
	if h.IsSpecializationOf("Receipts", "Receipts") {
		t.Error("an item is not a specialization of itself")
	}
	if got := h.Parents("beginning cash"); len(got) != 1 || got[0] != "receipts" {
		t.Errorf("Parents = %v", got)
	}
	// Cycles must not loop forever.
	h.AddSpecialization("a", "b")
	h.AddSpecialization("b", "a")
	if h.IsSpecializationOf("a", "zzz") {
		t.Error("cycle should not reach zzz")
	}
}

func TestTNorms(t *testing.T) {
	scores := []float64{0.9, 1.0, 0.8}
	tests := []struct {
		tn   TNorm
		want float64
	}{
		{TNormMin, 0.8},
		{TNormProduct, 0.72},
		{TNormLukasiewicz, 0.7},
	}
	for _, tc := range tests {
		if got := tc.tn.Combine(scores); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s.Combine = %v, want %v", tc.tn, got, tc.want)
		}
	}
	for _, tn := range []TNorm{TNormMin, TNormProduct, TNormLukasiewicz} {
		if got := tn.Combine(nil); got != 1 {
			t.Errorf("%s.Combine(nil) = %v, want 1 (identity)", tn, got)
		}
	}
	// t-norm axioms on sampled values: bounded by min, monotone, identity 1.
	prop := func(a, b uint8) bool {
		x, y := float64(a)/255, float64(b)/255
		for _, tn := range []TNorm{TNormMin, TNormProduct, TNormLukasiewicz} {
			v := tn.Combine([]float64{x, y})
			if v < 0 || v > math.Min(x, y)+1e-12 {
				return false
			}
			if one := tn.Combine([]float64{x, 1}); math.Abs(one-x) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestCorrector(t *testing.T) {
	d := NewDomain("Subsection", "beginning cash", "cash sales", "receivables")
	c := &Corrector{Domain: d, MinScore: 0.7}
	got, score, ok := c.Correct("bgnning cesh")
	if !ok || got != "beginning cash" || score <= 0.7 {
		t.Errorf("Correct = %q, %v, %v", got, score, ok)
	}
	got, score, ok = c.Correct("cash sales")
	if !ok || got != "cash sales" || score != 1 {
		t.Errorf("exact Correct = %q, %v, %v", got, score, ok)
	}
	got, _, ok = c.Correct("totally unrelated text")
	if ok || got != "totally unrelated text" {
		t.Errorf("low-score Correct = %q, %v", got, ok)
	}
	empty := &Corrector{Domain: NewDomain("empty"), MinScore: 0.5}
	if _, _, ok := empty.Correct("x"); ok {
		t.Error("empty domain cannot correct")
	}
}

func TestTNormString(t *testing.T) {
	if TNormMin.String() != "min" || TNormProduct.String() != "product" || TNormLukasiewicz.String() != "lukasiewicz" {
		t.Error("TNorm names")
	}
}

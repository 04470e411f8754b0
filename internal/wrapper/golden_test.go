package wrapper_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dart/internal/convert"
	"dart/internal/docgen"
	"dart/internal/lexicon"
	"dart/internal/metadata"
	"dart/internal/ocr"
	"dart/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/extract.golden from the current wrapper")

const extractGoldenPath = "testdata/extract.golden"

// extractCase is one document extracted with one scenario's wrapper.
type extractCase struct {
	name  string
	md    *metadata.Metadata
	tnorm lexicon.TNorm
	src   string // HTML or scan text, converted as the pipeline does
}

// extractCorpus is the pinned corpus: every built-in scenario at string
// noise 0/5/20/40/60%, rendered as HTML and as scan text, extracted under
// each t-norm; plus a hand-made budget for the hierarchy's penalized
// fallback and for case and white-space variants. Every call parses the
// scenarios' metadata afresh, so no earlier extraction has touched it.
func extractCorpus(t *testing.T) []extractCase {
	t.Helper()
	type kind struct {
		name string
		src  string
		doc  func(*rand.Rand) *docgen.Document
	}
	kinds := []kind{
		{"cashbudget", scenario.CashBudgetSource(), func(rng *rand.Rand) *docgen.Document {
			return docgen.BudgetDocument(docgen.RandomBudget(rng, 2000, 2))
		}},
		{"catalog", scenario.CatalogSource(), func(rng *rand.Rand) *docgen.Document {
			return docgen.OrdersDocument(docgen.RandomOrders(rng, 5))
		}},
		{"balancesheet", scenario.BalanceSheetSource(), func(rng *rand.Rand) *docgen.Document {
			return docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2000, 1))
		}},
	}
	tnorms := []lexicon.TNorm{lexicon.TNormMin, lexicon.TNormProduct, lexicon.TNormLukasiewicz}
	var out []extractCase
	for ki, k := range kinds {
		md, err := metadata.Parse(k.src)
		if err != nil {
			t.Fatalf("%s metadata: %v", k.name, err)
		}
		for ni, rate := range []float64{0, 0.05, 0.2, 0.4, 0.6} {
			rng := rand.New(rand.NewSource(int64(100*ki + ni + 1)))
			d := k.doc(rng)
			noisy, _ := ocr.Corrupt(d, ocr.Options{
				NumericErrors: 1,
				StringRate:    rate,
				EligibleNumeric: func(table, row, col int, _ string) bool {
					return col == len(d.Tables[table].Rows[row])-1
				},
			}, rng)
			for _, format := range []string{"html", "scan"} {
				src := noisy.HTML()
				if format == "scan" {
					src = noisy.ScanText()
				}
				for _, tn := range tnorms {
					out = append(out, extractCase{
						name:  fmt.Sprintf("%s/%s/noise=%g/%s", k.name, format, rate, tn),
						md:    md,
						tnorm: tn,
						src:   src,
					})
				}
			}
		}
	}
	// The cash budget with a fourth Section, 'Memo', that no Subsection
	// specializes: a Subsection under Memo falls back to the whole domain
	// at half score, so an exact item is accepted at 0.5 and a misspelled
	// one is skipped.
	budget, err := metadata.Parse(strings.Replace(scenario.CashBudgetSource(),
		"'Receipts', 'Disbursements', 'Balance'", "'Receipts', 'Disbursements', 'Balance', 'Memo'", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Table 0 rows 0-3 are 2003 Receipts; as Memo they take the fallback.
	// Other cells vary case and white space of exact items, misspell a
	// Section (which then restricts its Subsections), or name a Subsection
	// of another Section.
	doc := docgen.RunningExampleDocument()
	t0, t1 := doc.Tables[0].Rows, doc.Tables[1].Rows
	t0[0][1].Text = "Memo"
	t0[1][0].Text = "Cash\tSales"
	t0[2][0].Text = "paymnt of acounts"
	t0[4][0].Text = "Disbursments"
	t0[4][1].Text = "Total  Disbursements"
	t1[0][1].Text = "  RECEIPTS "
	t1[0][2].Text = "payment of accounts"
	t1[8][0].Text = "BALANCE"
	t1[9][0].Text = "ending cash"
	for _, tn := range tnorms {
		out = append(out,
			extractCase{name: "cashbudget/fallback/html/" + tn.String(), md: budget, tnorm: tn, src: doc.HTML()},
			extractCase{name: "cashbudget/fallback/scan/" + tn.String(), md: budget, tnorm: tn, src: doc.ScanText()},
		)
	}
	return out
}

// renderExtraction flattens one extraction into the golden format:
// instances with every cell binding, skipped rows and corrections, with
// scores printed exactly.
func renderExtraction(t *testing.T, c extractCase) string {
	t.Helper()
	html, err := convert.ToHTML(c.src, convert.Detect(c.src))
	if err != nil {
		return "convert error: " + err.Error()
	}
	w := c.md.NewWrapper()
	w.TNorm = c.tnorm
	instances, skipped, err := w.Extract(html)
	if err != nil {
		return "extract error: " + err.Error()
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var b strings.Builder
	for _, in := range instances {
		fmt.Fprintf(&b, "instance t%d r%d %s %s", in.Table, in.Row, in.Pattern.Name, f(in.Score))
		for i, cm := range in.Cells {
			fmt.Fprintf(&b, " | %s=%q:%s", in.Pattern.Cells[i].Headline, cm.Value, f(cm.Score))
		}
		b.WriteByte('\n')
	}
	for _, s := range skipped {
		fmt.Fprintf(&b, "skipped t%d r%d %s %q\n", s.Table, s.Row, f(s.BestScore), s.Text)
	}
	for _, in := range instances {
		for _, cr := range in.Corrections() {
			fmt.Fprintf(&b, "correction t%d r%d %s %q -> %q %s\n", cr.Table, cr.Row, cr.Headline, cr.From, cr.To, f(cr.Score))
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// loadExtractGolden parses the golden file into its "=== name" sections.
func loadExtractGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(extractGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, part := range strings.Split(string(raw), "=== ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		sections[name] = strings.TrimSuffix(body, "\n")
	}
	return sections
}

// TestExtractMatchesGolden pins what the wrapper extracts from the corpus:
// every instance with its cell bindings and scores, every skipped row and
// every string correction. A matching change that alters any of them, even
// in the last bit of a score, shows up here.
func TestExtractMatchesGolden(t *testing.T) {
	corpus := extractCorpus(t)
	got := make(map[string]string, len(corpus))
	for _, c := range corpus {
		got[c.name] = renderExtraction(t, c)
	}
	if *update {
		var b strings.Builder
		for _, c := range corpus {
			fmt.Fprintf(&b, "=== %s\n%s\n", c.name, got[c.name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(extractGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := loadExtractGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, want %d", extractGoldenPath, len(want), len(got))
	}
	for _, c := range corpus {
		if got[c.name] != want[c.name] {
			t.Errorf("%s drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", c.name, extractGoldenPath, got[c.name], want[c.name])
		}
	}
}

// TestExtractConcurrentSharedMetadata runs Extract from 8 goroutines on
// wrappers built from the corpus's freshly parsed Metadata values, one per
// scenario and shared by all goroutines, as dartd's workers share theirs.
// Under -race it shows that extraction leaves the shared patterns, domains
// and hierarchy untouched (a memo filled lazily on them would race on the
// first documents); every goroutine must extract what the golden file
// holds.
func TestExtractConcurrentSharedMetadata(t *testing.T) {
	corpus := extractCorpus(t)
	want := loadExtractGolden(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range corpus {
				c := corpus[(i+11*g)%len(corpus)]
				if got := renderExtraction(t, c); got != want[c.name] {
					t.Errorf("goroutine %d, %s:\n--- got ---\n%s\n--- want ---\n%s", g, c.name, got, want[c.name])
				}
			}
		}(g)
	}
	wg.Wait()
}

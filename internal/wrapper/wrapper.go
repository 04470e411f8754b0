// Package wrapper implements DART's table wrapper (Section 6.2): matching
// table rows against designer-specified row patterns, scoring each cell
// match, combining cell scores with a t-norm, choosing the best pattern per
// row, and constructing row pattern instances in which incorrect lexical
// items have been replaced by their most similar valid item (msi) — the
// wrapper-level repair of non-numerical strings described in the paper.
package wrapper

import (
	"fmt"
	"strings"

	"dart/internal/htmlx"
	"dart/internal/lexicon"
)

// CellKind is the content specification of a row-pattern cell: a designer
// domain or one of the standard domains.
type CellKind int

const (
	// KindDomain expects a lexical item of the cell's Domain.
	KindDomain CellKind = iota
	// KindInteger expects an integer literal.
	KindInteger
	// KindReal expects a numeric literal.
	KindReal
	// KindString expects any non-empty text.
	KindString
)

// String names the kind.
func (k CellKind) String() string {
	switch k {
	case KindDomain:
		return "domain"
	case KindInteger:
		return "Integer"
	case KindReal:
		return "Real"
	default:
		return "String"
	}
}

// PatternCell is one cell of a row pattern: the headline names its
// semantics (used by the database generator), Kind/Domain specify the
// expected content, and SpecializationOf >= 0 requires the matched item to
// be a specialization of the item matched in that earlier cell (the arrow
// of Fig. 7(a)).
type PatternCell struct {
	Headline         string
	Kind             CellKind
	Domain           *lexicon.Domain
	SpecializationOf int
}

// RowPattern specifies structure and content of one row shape (Fig. 7(a)).
type RowPattern struct {
	Name  string
	Cells []PatternCell
}

// Validate checks internal consistency of the pattern.
func (p *RowPattern) Validate() error {
	for i, c := range p.Cells {
		if c.Headline == "" {
			return fmt.Errorf("wrapper: pattern %s cell %d has no headline", p.Name, i)
		}
		if c.Kind == KindDomain && c.Domain == nil {
			return fmt.Errorf("wrapper: pattern %s cell %s has kind domain but no domain", p.Name, c.Headline)
		}
		if c.SpecializationOf >= i {
			return fmt.Errorf("wrapper: pattern %s cell %s: specialization must reference an earlier cell", p.Name, c.Headline)
		}
		if c.SpecializationOf >= 0 && p.Cells[c.SpecializationOf].Kind != KindDomain {
			return fmt.Errorf("wrapper: pattern %s cell %s: specialization target must be a domain cell", p.Name, c.Headline)
		}
	}
	return nil
}

// CellMatch is the binding of one pattern cell in an instance: the item (or
// normalized literal) the cell was bound to and the matching score.
type CellMatch struct {
	Value string
	Score float64
}

// Instance is a row pattern instance (Fig. 7(b)): one document row matched
// against its best row pattern.
type Instance struct {
	Pattern *RowPattern
	Cells   []CellMatch
	// Score is the t-norm combination of the cell scores.
	Score float64
	// Table and Row locate the source row within the document.
	Table, Row int
	// Raw holds the document's original cell texts the instance was
	// matched from.
	Raw []string
}

// Correction records one string repair the wrapper performed: a cell whose
// raw text was not a valid lexical item and was replaced by its most
// similar one ("incorrect items in the input tables are transformed into
// the most similar valid lexical items", Section 6.2).
type Correction struct {
	Table, Row int
	Headline   string
	From, To   string
	Score      float64
}

// Corrections lists the string repairs embodied in the instance.
func (in *Instance) Corrections() []Correction {
	var out []Correction
	for i, pc := range in.Pattern.Cells {
		if pc.Kind != KindDomain || i >= len(in.Raw) {
			continue
		}
		if in.Cells[i].Score < 1 && in.Cells[i].Value != htmlx.CollapseSpace(in.Raw[i]) {
			out = append(out, Correction{
				Table: in.Table, Row: in.Row,
				Headline: pc.Headline,
				From:     htmlx.CollapseSpace(in.Raw[i]),
				To:       in.Cells[i].Value,
				Score:    in.Cells[i].Score,
			})
		}
	}
	return out
}

// Get returns the value bound to the cell with the given headline.
func (in *Instance) Get(headline string) (string, bool) {
	for i, c := range in.Pattern.Cells {
		if c.Headline == headline {
			return in.Cells[i].Value, true
		}
	}
	return "", false
}

// Wrapper drives extraction: it matches every row of every table of an
// input HTML document against its row patterns.
type Wrapper struct {
	Patterns []*RowPattern
	// Hierarchy supplies the specialization relation for patterns using it.
	Hierarchy *lexicon.Hierarchy
	// TNorm combines cell scores into the row score (default: min).
	TNorm lexicon.TNorm
	// MinScore is the acceptance threshold for instances; rows whose best
	// match scores below it are reported as skipped (default 0.5).
	MinScore float64
	// TableFilter optionally restricts extraction to specific tables by
	// index (the extraction metadata's "position inside the document").
	TableFilter func(tableIndex int) bool
}

// Skipped describes a document row no pattern matched acceptably.
type Skipped struct {
	Table, Row int
	BestScore  float64
	Text       string
}

// Extract parses the HTML document and returns the accepted row pattern
// instances in document order, plus the rows that matched no pattern.
func (w *Wrapper) Extract(html string) ([]*Instance, []Skipped, error) {
	for _, p := range w.Patterns {
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
	}
	if len(w.Patterns) == 0 {
		return nil, nil, fmt.Errorf("wrapper: no row patterns")
	}
	minScore := w.MinScore
	if minScore == 0 {
		minScore = 0.5
	}
	m := &matcher{
		Wrapper:    w,
		restricted: map[restrictKey]*lexicon.Domain{},
		matches:    map[matchKey]CellMatch{},
	}
	var instances []*Instance
	var skipped []Skipped
	tables := htmlx.ParseTables(html)
	for ti, table := range tables {
		if w.TableFilter != nil && !w.TableFilter(ti) {
			continue
		}
		grid := table.Grid()
		for ri, row := range grid {
			cells := presentTexts(row)
			if len(cells) == 0 {
				continue
			}
			best := m.matchRow(cells)
			if best == nil || best.Score < minScore {
				sc := 0.0
				if best != nil {
					sc = best.Score
				}
				skipped = append(skipped, Skipped{Table: ti, Row: ri, BestScore: sc, Text: strings.Join(cells, " | ")})
				continue
			}
			best.Table, best.Row = ti, ri
			instances = append(instances, best)
		}
	}
	return instances, skipped, nil
}

func presentTexts(row []htmlx.GridCell) []string {
	var out []string
	for _, c := range row {
		if c.Present {
			out = append(out, c.Text)
		}
	}
	// Trailing empty cells are padding artifacts, not content.
	for len(out) > 0 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out
}

// matcher matches the rows of one Extract call. A document repeats few
// distinct domain texts over many rows (a 100-year cash budget has 1,000
// rows and about 13 distinct Section and Subsection texts), so the matcher
// memoizes every domain cell's match and every restricted domain. The
// memos live for the call only, so they never need invalidating, and the
// Wrapper, its domains and its hierarchy, which concurrent extractions may
// share, are only read.
type matcher struct {
	*Wrapper
	// restricted holds the items of a cell's domain that specialize the
	// value bound to its parent cell.
	restricted map[restrictKey]*lexicon.Domain
	// matches holds the match of every domain cell text seen so far.
	matches map[matchKey]CellMatch
	// scores is the cell-score buffer matchPattern reuses.
	scores []float64
}

// restrictKey names one pattern cell together with the value bound to the
// cell it specializes ("" for a cell without a hierarchical restriction).
type restrictKey struct {
	pattern *RowPattern
	cell    int
	parent  string
}

// matchKey names one domain cell text matched under a restrictKey.
type matchKey struct {
	restrictKey
	text string
}

// matchRow evaluates every pattern on the row's cell texts and returns the
// best-scoring instance (nil when no pattern has the row's arity). The
// candidate instances share cells, which presentTexts made for this row, as
// their Raw texts.
func (m *matcher) matchRow(cells []string) *Instance {
	var best *Instance
	for _, p := range m.Patterns {
		if len(p.Cells) != len(cells) {
			continue
		}
		in := m.matchPattern(p, cells)
		if best == nil || in.Score > best.Score {
			best = in
		}
	}
	return best
}

// matchPattern binds each cell of the row to the pattern, producing the
// instance with per-cell scores (Example 13's 90% score for "bgnning cesh"
// against the Subsection domain arises here).
func (m *matcher) matchPattern(p *RowPattern, cells []string) *Instance {
	in := &Instance{Pattern: p, Cells: make([]CellMatch, len(cells)), Raw: cells}
	scores := m.scores[:0]
	for i, pc := range p.Cells {
		text := htmlx.CollapseSpace(cells[i])
		var cm CellMatch
		switch pc.Kind {
		case KindInteger:
			cm = matchInteger(text)
		case KindReal:
			cm = matchReal(text)
		case KindString:
			if text != "" {
				cm = CellMatch{Value: text, Score: 1}
			}
		case KindDomain:
			cm = m.matchDomain(p, i, in, text)
		}
		in.Cells[i] = cm
		scores = append(scores, cm.Score)
	}
	in.Score = m.TNorm.Combine(scores)
	m.scores = scores
	return in
}

// matchDomain finds the most similar item of the cell's domain, restricted
// to items satisfying the cell's hierarchical relationship when one is
// specified (footnote 4 of the paper); when no item satisfies it, the full
// domain is used with a score penalty. Each distinct text is matched once
// per parent value.
func (m *matcher) matchDomain(p *RowPattern, i int, in *Instance, text string) CellMatch {
	pc := p.Cells[i]
	restrict := pc.SpecializationOf >= 0 && m.Hierarchy != nil
	key := matchKey{restrictKey: restrictKey{pattern: p, cell: i}, text: text}
	if restrict {
		key.parent = in.Cells[pc.SpecializationOf].Value
	}
	if cm, ok := m.matches[key]; ok {
		return cm
	}
	d := pc.Domain
	if restrict {
		d = m.restrictedDomain(pc, key.restrictKey)
	}
	var cm CellMatch
	if mt, ok := d.BestMatch(text); ok {
		cm = CellMatch{Value: mt.Item, Score: mt.Score}
	} else if restrict {
		// No item specializes the parent: fall back, penalized.
		if mt, ok := pc.Domain.BestMatch(text); ok {
			cm = CellMatch{Value: mt.Item, Score: mt.Score * 0.5}
		}
	}
	m.matches[key] = cm
	return cm
}

// restrictedDomain returns the items of the cell's domain that specialize
// the value bound to its parent cell.
func (m *matcher) restrictedDomain(pc PatternCell, key restrictKey) *lexicon.Domain {
	if d, ok := m.restricted[key]; ok {
		return d
	}
	d := lexicon.NewDomain(pc.Domain.Name)
	for _, item := range pc.Domain.Items() {
		if m.Hierarchy.IsSpecializationOf(item, key.parent) {
			d.Add(item)
		}
	}
	m.restricted[key] = d
	return d
}

// matchInteger scores integer literals: exact integers score 1; text whose
// digit content dominates scores partially after stripping grouping
// characters; non-numeric text scores 0.
func matchInteger(text string) CellMatch {
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == ',' {
			return -1
		}
		return r
	}, text)
	if isInt(clean) {
		return CellMatch{Value: clean, Score: 1}
	}
	// Count digit fraction as a weak score so a smudged number still beats
	// a string pattern, without being accepted as a clean integer.
	digits := 0
	for i := 0; i < len(clean); i++ {
		if clean[i] >= '0' && clean[i] <= '9' {
			digits++
		}
	}
	if len(clean) == 0 || digits == 0 {
		return CellMatch{Value: text}
	}
	return CellMatch{Value: clean, Score: 0.5 * float64(digits) / float64(len(clean))}
}

func matchReal(text string) CellMatch {
	clean := strings.ReplaceAll(text, " ", "")
	mantissa := strings.Replace(clean, ".", "", 1)
	if isInt(strings.TrimPrefix(mantissa, "-")) {
		return CellMatch{Value: clean, Score: 1}
	}
	return CellMatch{Value: text}
}

func isInt(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '-' {
		s = s[1:]
		if s == "" {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Package lexicon implements the linguistic metadata of Section 6.2: domain
// descriptions (sets of lexical items), hierarchical relationships between
// items of different domains (Fig. 6), string similarity scoring for the
// wrapper's cell matching, t-norms for combining cell scores into row
// scores, and dictionary-based spelling correction of non-numerical strings
// damaged during acquisition.
package lexicon

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Levenshtein computes the edit distance between two strings (unit-cost
// insertions, deletions, substitutions), operating on bytes: the OCR
// confusions DART repairs are single-symbol slips, for which byte distance
// coincides with rune distance on the ASCII documents targeted.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Cell texts and lexical items are short: keep both rows on the stack.
	var buf [2 * 64]int
	var prev, cur []int
	if lb < 64 {
		prev, cur = buf[:lb+1], buf[64:64+lb+1]
	} else {
		prev, cur = make([]int, lb+1), make([]int, lb+1)
	}
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// DamerauLevenshtein additionally counts adjacent transpositions as one
// edit (the restricted variant).
func DamerauLevenshtein(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	rows := make([][]int, la+1)
	for i := range rows {
		rows[i] = make([]int, lb+1)
		rows[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		rows[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min3(rows[i-1][j]+1, rows[i][j-1]+1, rows[i-1][j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := rows[i-2][j-2] + 1; t < d {
					d = t
				}
			}
			rows[i][j] = d
		}
	}
	return rows[la][lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Similarity maps edit distance into [0, 1]: 1 for identical strings,
// falling linearly with distance relative to the longer string. Comparison
// is case-insensitive with surrounding whitespace ignored, matching how the
// wrapper normalizes cell text. Both arguments are normalized on every
// call; Domain.BestMatch keeps its items normalized and normalizes the
// query once, so matching a cell against a domain pays for neither again.
func Similarity(a, b string) float64 {
	return similarityNorm(Normalize(a), Normalize(b))
}

// similarityNorm is Similarity on strings already in Normalize form.
func similarityNorm(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	d := Levenshtein(a, b)
	s := 1 - float64(d)/float64(m)
	if s < 0 {
		return 0
	}
	return s
}

// Normalize lower-cases and collapses internal whitespace.
func Normalize(s string) string {
	if isNormal(s) {
		return s
	}
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// isNormal reports whether Normalize would return s unchanged: ASCII with
// no upper-case letter, words separated by single spaces, no white space at
// either end. Most strings the wrapper compares already are, and the check
// saves their copy.
func isNormal(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf, 'A' <= c && c <= 'Z', c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i+1] == ' '):
			return false
		}
	}
	return true
}

// Domain is a named set of lexical items (a domain description). Items
// are kept verbatim for output and, next to them, in Normalize form for
// matching; items are unique under normalization.
type Domain struct {
	Name  string
	items []string
	norms []string       // norms[i] is Normalize(items[i])
	index map[string]int // Normalize(item) -> position in items
}

// NewDomain creates a domain with the given items. Items are kept verbatim
// for output but matched in normalized form.
func NewDomain(name string, items ...string) *Domain {
	d := &Domain{Name: name, index: map[string]int{}}
	for _, it := range items {
		d.Add(it)
	}
	return d
}

// Add inserts an item (idempotent under normalization).
func (d *Domain) Add(item string) {
	key := Normalize(item)
	if _, ok := d.index[key]; !ok {
		d.index[key] = len(d.items)
		d.items = append(d.items, item)
		d.norms = append(d.norms, key)
	}
}

// Items returns the items in insertion order.
func (d *Domain) Items() []string { return append([]string(nil), d.items...) }

// Contains reports whether the string is an item of the domain (normalized
// comparison).
func (d *Domain) Contains(s string) bool {
	_, ok := d.index[Normalize(s)]
	return ok
}

// Match is the result of matching a string against a domain.
type Match struct {
	Item  string
	Score float64
}

// BestMatch returns the most similar lexical item (msi in the paper's
// wrapper description) together with its similarity score; ties go to the
// earliest item. ok is false for an empty domain.
//
// A query equal to an item under normalization returns that item with
// score 1 straight from the index: it is the item the scan would pick,
// since items are unique under normalization and every other item scores
// 1 - d/m < 1.
func (d *Domain) BestMatch(s string) (Match, bool) {
	if len(d.items) == 0 {
		return Match{}, false
	}
	q := Normalize(s)
	if i, ok := d.index[q]; ok {
		return Match{Item: d.items[i], Score: 1}, true
	}
	best := Match{Score: -1}
	for i, n := range d.norms {
		if sc := similarityNorm(q, n); sc > best.Score {
			best = Match{Item: d.items[i], Score: sc}
		}
	}
	return best, true
}

// Hierarchy stores the hierarchical relationships of Fig. 6: item a of one
// domain is a specialization of item b of another. Keys are normalized.
type Hierarchy struct {
	parents map[string]map[string]bool
}

// NewHierarchy creates an empty hierarchy.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{parents: map[string]map[string]bool{}}
}

// AddSpecialization records that child is a specialization of parent.
func (h *Hierarchy) AddSpecialization(child, parent string) {
	c := Normalize(child)
	if h.parents[c] == nil {
		h.parents[c] = map[string]bool{}
	}
	h.parents[c][Normalize(parent)] = true
}

// IsSpecializationOf reports whether child is a (direct or transitive)
// specialization of parent.
func (h *Hierarchy) IsSpecializationOf(child, parent string) bool {
	c, p := Normalize(child), Normalize(parent)
	if c == p {
		return false
	}
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(cur string) bool {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for up := range h.parents[cur] {
			if up == p || walk(up) {
				return true
			}
		}
		return false
	}
	return walk(c)
}

// Parents returns the direct generalizations of an item, sorted.
func (h *Hierarchy) Parents(child string) []string {
	var out []string
	for p := range h.parents[Normalize(child)] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TNorm is a triangular norm used to combine per-cell matching scores into
// a row-pattern-instance score (Section 6.2: "a suitable t-norm").
type TNorm int

const (
	// TNormMin is the Gödel t-norm: min(a, b).
	TNormMin TNorm = iota
	// TNormProduct is the product t-norm: a*b.
	TNormProduct
	// TNormLukasiewicz is max(0, a+b-1).
	TNormLukasiewicz
)

// String names the t-norm.
func (t TNorm) String() string {
	switch t {
	case TNormMin:
		return "min"
	case TNormProduct:
		return "product"
	case TNormLukasiewicz:
		return "lukasiewicz"
	default:
		return fmt.Sprintf("TNorm(%d)", int(t))
	}
}

// Combine folds the t-norm over the scores; the empty combination is 1
// (the t-norm identity).
func (t TNorm) Combine(scores []float64) float64 {
	acc := 1.0
	for _, s := range scores {
		switch t {
		case TNormMin:
			if s < acc {
				acc = s
			}
		case TNormProduct:
			acc *= s
		case TNormLukasiewicz:
			acc = acc + s - 1
			if acc < 0 {
				acc = 0
			}
		}
	}
	return acc
}

// Corrector performs dictionary-based spelling correction against a domain:
// strings whose best match reaches MinScore are replaced by the matched
// lexical item (the wrapper's repair of non-numerical strings).
type Corrector struct {
	Domain   *Domain
	MinScore float64
}

// Correct returns the corrected string, its match score, and whether the
// correction (or exact match) succeeded. Inputs already in the domain
// return themselves with score 1.
func (c *Corrector) Correct(s string) (string, float64, bool) {
	m, ok := c.Domain.BestMatch(s)
	if !ok {
		return s, 0, false
	}
	if m.Score >= c.MinScore {
		return m.Item, m.Score, true
	}
	return s, m.Score, false
}

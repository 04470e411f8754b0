package aggrcons

import (
	"fmt"
	"hash/maphash"
	"math"

	"dart/internal/relational"
)

// Index answers T_chi probes on one database from hash indexes, one per
// aggregation function. A function's index hashes the relation's tuples on
// the attributes that the top-level `attr = param` and `attr = const`
// conjuncts of its WHERE clause name; a probe hashes the arguments the same
// way and filters the matching bucket with the WHERE clause itself, so it
// returns exactly the tuples a scan would, in relation order. A WHERE
// without such a conjunct has an empty key, and its single bucket is the
// whole relation. Grounding therefore costs one hash pass per function's
// relation plus one bucket per probe, instead of one relation scan per
// probe.
//
// Steadiness (Definition 6) keeps the key attributes out of the measure
// set, but an Index still assumes nothing: it reads the database once per
// function on first use and must not outlive a change to the database. It
// is meant to live for a single call (Check, core.BuildSystem) and is not
// safe for concurrent use.
type Index struct {
	db    *relational.Database
	seed  maphash.Seed
	funcs map[*AggFunc]*funcIndex
}

// NewIndex returns an empty index over db; per-function indexes are built
// on first probe.
func NewIndex(db *relational.Database) *Index {
	return &Index{db: db, seed: maphash.MakeSeed(), funcs: map[*AggFunc]*funcIndex{}}
}

// funcIndex is one aggregation function's hash index over its relation.
type funcIndex struct {
	tuples []*relational.Tuple
	// attrs are the key attribute positions and probes the operand (a
	// parameter or a constant) each is compared with, parallel.
	attrs  []int
	probes []Operand
	// buckets maps a key hash to tuple positions in ascending order. Hash
	// collisions only enlarge a bucket: the WHERE filter removes strangers.
	buckets map[uint64][]int32
}

// Tuples returns T_chi for f under args, exactly as a scan of f's relation
// evaluating the WHERE clause on every tuple would.
func (x *Index) Tuples(f *AggFunc, args []relational.Value) ([]*relational.Tuple, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("aggrcons: %s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	fi, err := x.funcIndex(f)
	if err != nil {
		return nil, err
	}
	pos, all := fi.probe(x.seed, args)
	n := len(pos)
	if all {
		n = len(fi.tuples)
	}
	var out []*relational.Tuple
	for i := 0; i < n; i++ {
		t := fi.tuples[i]
		if !all {
			t = fi.tuples[pos[i]]
		}
		ok, err := f.Where.Eval(t, args)
		if err != nil {
			return nil, fmt.Errorf("aggrcons: evaluating WHERE of %s: %w", f.Name, err)
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// Eval computes SELECT sum(e) FROM R WHERE alpha(args) over the indexed
// T_chi; see AggFunc.Eval.
func (x *Index) Eval(f *AggFunc, args []relational.Value) (float64, error) {
	ts, err := x.Tuples(f, args)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, t := range ts {
		v, err := f.Expr.Eval(t)
		if err != nil {
			return 0, fmt.Errorf("aggrcons: evaluating sum expression of %s: %w", f.Name, err)
		}
		sum += v
	}
	return sum, nil
}

func (x *Index) funcIndex(f *AggFunc) (*funcIndex, error) {
	if fi, ok := x.funcs[f]; ok {
		return fi, nil
	}
	r := x.db.Relation(f.Relation)
	if r == nil {
		return nil, fmt.Errorf("aggrcons: %s aggregates over unknown relation %q", f.Name, f.Relation)
	}
	fi := &funcIndex{tuples: r.Tuples()}
	fi.attrs, fi.probes = equalityKey(f, r.Schema())
	fi.dropNaNAttrs()
	if len(fi.attrs) > 0 {
		fi.buckets = map[uint64][]int32{}
		for i, t := range fi.tuples {
			h := uint64(0)
			for _, a := range fi.attrs {
				h = mixValue(x.seed, h, t.At(a))
			}
			fi.buckets[h] = append(fi.buckets[h], int32(i))
		}
	}
	x.funcs[f] = fi
	return fi, nil
}

// probe returns the positions of a superset of T_chi in relation order:
// the bucket the arguments hash to, or all (every tuple) when the key is
// empty or an argument is NaN, which Cmp.Eval finds equal to every number.
func (fi *funcIndex) probe(seed maphash.Seed, args []relational.Value) (pos []int32, all bool) {
	if len(fi.attrs) == 0 {
		return nil, true
	}
	h := uint64(0)
	for _, p := range fi.probes {
		v := p.cnst
		if p.kind == opParam {
			v = args[p.param]
		}
		if isNaN(v) {
			return nil, true
		}
		h = mixValue(seed, h, v)
	}
	return fi.buckets[h], false
}

// dropNaNAttrs removes every key attribute holding a NaN in some tuple:
// that tuple equals every numeric argument, so no single bucket holds it.
func (fi *funcIndex) dropNaNAttrs() {
	keep := 0
	for i, a := range fi.attrs {
		hasNaN := false
		for _, t := range fi.tuples {
			if isNaN(t.At(a)) {
				hasNaN = true
				break
			}
		}
		if !hasNaN {
			fi.attrs[keep], fi.probes[keep] = a, fi.probes[i]
			keep++
		}
	}
	fi.attrs, fi.probes = fi.attrs[:keep], fi.probes[:keep]
}

// equalityKey picks the key of f's index: the attribute positions and
// probe operands of the WHERE's top-level `attr = param|const` conjuncts.
// The key is empty when evaluating the WHERE could fail on some tuple (an
// unknown attribute, an out-of-range parameter, an unknown operator or
// formula type), so that a probe visits every tuple and reports the error
// exactly as a scan would.
func equalityKey(f *AggFunc, s *relational.Schema) ([]int, []Operand) {
	if !evalSafe(f.Where, s, len(f.Params)) {
		return nil, nil
	}
	var attrs []int
	var probes []Operand
	var visit func(e BoolExpr)
	visit = func(e BoolExpr) {
		switch x := e.(type) {
		case And:
			for _, c := range x {
				visit(c)
			}
		case Cmp:
			if x.Op != CmpEQ {
				return
			}
			attr, probe := x.L, x.R
			if attr.kind != opAttr {
				attr, probe = probe, attr
			}
			if attr.kind != opAttr || probe.kind == opAttr {
				return
			}
			attrs = append(attrs, s.AttrIndex(attr.attr))
			probes = append(probes, probe)
		}
	}
	visit(f.Where)
	return attrs, probes
}

// evalSafe reports whether BoolExpr.Eval of e cannot fail on a tuple of
// scheme s with arity arguments.
func evalSafe(e BoolExpr, s *relational.Schema, arity int) bool {
	okOperand := func(o Operand) bool {
		switch o.kind {
		case opAttr:
			return s.AttrIndex(o.attr) >= 0
		case opParam:
			return o.param >= 0 && o.param < arity
		default:
			return true
		}
	}
	switch x := e.(type) {
	case Cmp:
		return x.Op >= CmpEQ && x.Op <= CmpGE && okOperand(x.L) && okOperand(x.R)
	case And:
		for _, c := range x {
			if !evalSafe(c, s, arity) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range x {
			if !evalSafe(c, s, arity) {
				return false
			}
		}
		return true
	case Not:
		return evalSafe(x.F, s, arity)
	default:
		return false
	}
}

// mixValue folds one key value into the hash h. It follows Cmp.Eval's
// equality: numbers hash by float64 value with -0 as 0, so Int 3 and
// Real 3.0 share a bucket; strings hash by content. A number and a string
// may collide, which costs only a filtered-out candidate.
func mixValue(seed maphash.Seed, h uint64, v relational.Value) uint64 {
	var x uint64
	if v.IsNumeric() {
		f := v.AsFloat()
		if f == 0 {
			f = 0 // -0 compares equal to 0
		}
		x = math.Float64bits(f)
	} else {
		x = maphash.String(seed, v.AsString())
	}
	h ^= x
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func isNaN(v relational.Value) bool {
	return v.Kind() == relational.DomainReal && math.IsNaN(v.AsFloat())
}

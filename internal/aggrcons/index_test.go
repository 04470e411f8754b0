package aggrcons_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dart/internal/aggrcons"
	"dart/internal/relational"
)

// The index must return exactly the T_chi a scan returns — the same tuples
// in the same order, and the same error — for every relation, WHERE shape
// and argument. These tests compare it with a brute-force scan on
// relations built to stress the key: numbers that compare equal across Z
// and R (3 and 3.0, -0 and 0, 2^53 and 2^53+1), NaN in tuples, constants
// and arguments, strings that look like numbers, and WHERE clauses mixing
// And, Or, Not, <, <> and = over attributes, parameters and constants.

// scanTuples is the reference T_chi: every tuple of the relation, in order,
// filtered by the WHERE clause.
func scanTuples(db *relational.Database, f *aggrcons.AggFunc, args []relational.Value) ([]*relational.Tuple, error) {
	var out []*relational.Tuple
	for _, t := range db.Relation(f.Relation).Tuples() {
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

// indexCase is one relation, one aggregation function over it and the
// argument tuples to probe it with.
type indexCase struct {
	db     *relational.Database
	f      *aggrcons.AggFunc
	probes [][]relational.Value
}

// checkIndexCase probes one shared Index and the one-shot AggFunc.Tuples
// with every argument tuple and compares both with the scan.
func checkIndexCase(t *testing.T, c indexCase) {
	t.Helper()
	idx := aggrcons.NewIndex(c.db)
	for _, args := range c.probes {
		want, wantErr := scanTuples(c.db, c.f, args)
		for _, side := range []struct {
			name string
			get  func() ([]*relational.Tuple, error)
		}{
			{"shared index", func() ([]*relational.Tuple, error) { return idx.Tuples(c.f, args) }},
			{"AggFunc.Tuples", func() ([]*relational.Tuple, error) { return c.f.Tuples(c.db, args) }},
		} {
			got, err := side.get()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %s with args %v: error %v, scan error %v\nrelation:\n%s",
					side.name, c.f, args, err, wantErr, c.db)
			}
			if !sameTuples(got, want) {
				t.Fatalf("%s: %s with args %v:\n got %v\nwant %v\nrelation:\n%s",
					side.name, c.f, args, got, want, c.db)
			}
		}
	}
}

func sameTuples(a, b []*relational.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var (
	negZero = math.Copysign(0, -1)
	nan     = math.NaN()
	// twoTo53 and twoTo53+1 are distinct integers with one float64 image.
	twoTo53 = int64(1) << 53
)

// valuePool holds the values the random cases draw from, per domain.
var valuePool = map[relational.Domain][]relational.Value{
	relational.DomainInt: {
		relational.Int(-1), relational.Int(0), relational.Int(1), relational.Int(3),
		relational.Int(twoTo53), relational.Int(twoTo53 + 1),
	},
	relational.DomainReal: {
		relational.Real(negZero), relational.Real(0), relational.Real(1), relational.Real(2.5),
		relational.Real(3), relational.Real(nan), relational.Real(float64(twoTo53)),
	},
	relational.DomainString: {
		relational.String(""), relational.String("a"), relational.String("b"), relational.String("3"),
	},
}

var domains = []relational.Domain{relational.DomainInt, relational.DomainReal, relational.DomainString}

// byteSource turns fuzz input into choices; once exhausted it yields 0.
type byteSource struct{ b []byte }

func (s *byteSource) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}

func (s *byteSource) value(d relational.Domain) relational.Value {
	pool := valuePool[d]
	return pool[s.next(len(pool))]
}

func (s *byteSource) anyValue() relational.Value { return s.value(domains[s.next(len(domains))]) }

// genIndexCase decodes a relation of up to 4 Z/R/S columns and 31 tuples,
// a function with up to 2 parameters whose WHERE is a conjunction of up to
// 4 formulas, and up to 8 argument tuples. An unknown attribute and an
// out-of-range parameter are drawn now and then, so error reporting is
// compared too.
func genIndexCase(s *byteSource) indexCase {
	cols := make([]relational.Attribute, 1+s.next(4))
	for i := range cols {
		cols[i] = relational.Attribute{Name: fmt.Sprintf("A%d", i), Domain: domains[s.next(len(domains))]}
	}
	db := relational.NewDatabase()
	r := db.MustAddRelation(relational.MustSchema("R", cols...))
	for n := s.next(32); n > 0; n-- {
		vals := make([]relational.Value, len(cols))
		for i, c := range cols {
			vals[i] = s.value(c.Domain)
		}
		r.MustInsert(vals...)
	}
	params := make([]string, s.next(3))
	for i := range params {
		params[i] = fmt.Sprintf("p%d", i)
	}
	operand := func() aggrcons.Operand {
		switch s.next(8) {
		case 0, 1, 2:
			if s.next(16) == 0 {
				return aggrcons.OpAttr("Ghost")
			}
			return aggrcons.OpAttr(cols[s.next(len(cols))].Name)
		case 3, 4, 5:
			if len(params) == 0 || s.next(16) == 0 {
				return aggrcons.OpParam(len(params))
			}
			return aggrcons.OpParam(s.next(len(params)))
		default:
			return aggrcons.OpConst(s.anyValue())
		}
	}
	var formula func(depth int) aggrcons.BoolExpr
	formula = func(depth int) aggrcons.BoolExpr {
		k := s.next(8)
		if depth > 2 {
			k = 0
		}
		switch k {
		case 5:
			return aggrcons.And{formula(depth + 1), formula(depth + 1)}
		case 6:
			return aggrcons.Or{formula(depth + 1), formula(depth + 1)}
		case 7:
			return aggrcons.Not{F: formula(depth + 1)}
		default:
			op := aggrcons.CmpOp(s.next(6))
			if k < 3 {
				op = aggrcons.CmpEQ // favour equality: it is what the key is built from
			}
			return aggrcons.Cmp{L: operand(), Op: op, R: operand()}
		}
	}
	where := make(aggrcons.And, s.next(5))
	for i := range where {
		where[i] = formula(0)
	}
	f := &aggrcons.AggFunc{Name: "f", Relation: "R", Params: params, Expr: aggrcons.ConstExpr(1), Where: where}
	probes := make([][]relational.Value, 1+s.next(8))
	for i := range probes {
		probes[i] = make([]relational.Value, len(params))
		for j := range probes[i] {
			probes[i][j] = s.anyValue()
		}
	}
	return indexCase{db: db, f: f, probes: probes}
}

// handIndexCases are the edge cases named in the index's contract, each on
// a relation R(Z int, X real, S string).
func handIndexCases() map[string]indexCase {
	eq := func(attr string, o aggrcons.Operand) aggrcons.Cmp {
		return aggrcons.Cmp{L: aggrcons.OpAttr(attr), Op: aggrcons.CmpEQ, R: o}
	}
	p0, p1 := aggrcons.OpParam(0), aggrcons.OpParam(1)
	i, x, str := relational.Int, relational.Real, relational.String
	base := func(rows ...[3]relational.Value) *relational.Database {
		db := relational.NewDatabase()
		r := db.MustAddRelation(relational.MustSchema("R",
			relational.Attribute{Name: "Z", Domain: relational.DomainInt},
			relational.Attribute{Name: "X", Domain: relational.DomainReal},
			relational.Attribute{Name: "S", Domain: relational.DomainString}))
		for _, row := range rows {
			r.MustInsert(row[:]...)
		}
		return db
	}
	db := base(
		[3]relational.Value{i(3), x(3), str("a")},
		[3]relational.Value{i(0), x(negZero), str("3")},
		[3]relational.Value{i(twoTo53), x(0), str("b")},
		[3]relational.Value{i(twoTo53 + 1), x(2.5), str("a")},
		[3]relational.Value{i(3), x(1), str("")},
	)
	withNaN := base(
		[3]relational.Value{i(3), x(nan), str("a")},
		[3]relational.Value{i(1), x(1), str("a")},
		[3]relational.Value{i(3), x(3), str("b")},
	)
	fn := func(where aggrcons.BoolExpr, params ...string) *aggrcons.AggFunc {
		return &aggrcons.AggFunc{Name: "f", Relation: "R", Params: params, Expr: aggrcons.ConstExpr(1), Where: where}
	}
	numbers := [][]relational.Value{
		{i(3)}, {x(3)}, {i(0)}, {x(0)}, {x(negZero)}, {x(nan)}, {i(twoTo53)}, {i(twoTo53 + 1)},
		{x(float64(twoTo53))}, {str("3")}, {str("a")},
	}
	return map[string]indexCase{
		"int param = real column": {db, fn(aggrcons.And{eq("X", p0)}, "p"), numbers},
		"real param = int column": {db, fn(eq("Z", p0), "p"), numbers},
		"string column = numbers": {db, fn(eq("S", p0), "p"), numbers},
		"param on the left":       {db, fn(aggrcons.And{aggrcons.Cmp{L: p0, Op: aggrcons.CmpEQ, R: aggrcons.OpAttr("X")}}, "p"), numbers},
		"NaN in a key column":     {withNaN, fn(aggrcons.And{eq("X", p0), eq("S", p1)}, "p", "q"), [][]relational.Value{{x(3), str("a")}, {i(1), str("a")}, {x(nan), str("b")}, {str("a"), str("a")}}},
		"NaN constant":            {db, fn(aggrcons.And{eq("X", aggrcons.OpConst(x(nan))), eq("S", p0)}, "p"), [][]relational.Value{{str("a")}, {str("3")}}},
		"-0 constant":             {db, fn(aggrcons.And{eq("X", aggrcons.OpConst(x(negZero)))}), [][]relational.Value{{}}},
		"two keys with < and <>": {db, fn(aggrcons.And{
			eq("S", p1), eq("Z", p0),
			aggrcons.Cmp{L: aggrcons.OpAttr("X"), Op: aggrcons.CmpLT, R: aggrcons.OpConst(x(3))},
			aggrcons.Cmp{L: aggrcons.OpAttr("S"), Op: aggrcons.CmpNE, R: aggrcons.OpConst(str("b"))},
		}, "p", "q"), [][]relational.Value{{i(3), str("a")}, {x(3), str("")}, {i(twoTo53), str("b")}, {str("a"), i(3)}}},
		"Or and Not are not keys": {db, fn(aggrcons.And{
			aggrcons.Or{eq("Z", p0), eq("S", aggrcons.OpConst(str("a")))},
			aggrcons.Not{F: eq("X", p0)},
		}, "p"), numbers},
		"attribute = attribute": {db, fn(aggrcons.And{eq("Z", aggrcons.OpAttr("X")), eq("S", p0)}, "p"), [][]relational.Value{{str("a")}, {str("b")}}},
		"no WHERE":              {db, fn(aggrcons.And{}), [][]relational.Value{{}}},
		"unknown attribute after a key": {db, fn(aggrcons.And{
			eq("S", p0), aggrcons.Cmp{L: aggrcons.OpAttr("Ghost"), Op: aggrcons.CmpEQ, R: aggrcons.OpConst(i(1))},
		}, "p"), [][]relational.Value{{str("zzz")}, {str("a")}}},
		"out-of-range parameter after a key": {db, fn(aggrcons.And{
			eq("S", p0), aggrcons.Cmp{L: aggrcons.OpAttr("Z"), Op: aggrcons.CmpEQ, R: aggrcons.OpParam(4)},
		}, "p"), [][]relational.Value{{str("zzz")}, {str("a")}}},
	}
}

func TestIndexedTuplesMatchScan(t *testing.T) {
	for name, c := range handIndexCases() {
		t.Run(name, func(t *testing.T) { checkIndexCase(t, c) })
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 256)
	for n := 0; n < 3000; n++ {
		rng.Read(buf)
		checkIndexCase(t, genIndexCase(&byteSource{b: buf}))
	}
}

func FuzzIndexedTuples(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexCase(t, genIndexCase(&byteSource{b: data}))
	})
}

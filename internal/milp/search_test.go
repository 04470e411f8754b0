package milp

import (
	"math/rand"
	"testing"
)

// randomIntegerModel builds a reproducible random integer program with
// integral objective coefficients (the exact tie-breaking case).
func randomIntegerModel(src int64) *Model {
	r := rand.New(rand.NewSource(src))
	m := NewModel()
	nv := 3 + r.Intn(4)
	for j := 0; j < nv; j++ {
		m.AddVar("x", 0, float64(1+r.Intn(4)), Integer, float64(r.Intn(13)-6))
	}
	nc := 2 + r.Intn(3)
	for i := 0; i < nc; i++ {
		terms := make([]Term, nv)
		for j := 0; j < nv; j++ {
			terms[j] = Term{Var(j), float64(r.Intn(9) - 4)}
		}
		rel := []Rel{LE, GE, EQ}[r.Intn(3)]
		m.MustAddConstraint("c", terms, rel, float64(r.Intn(19)-6))
	}
	return m
}

func sameResult(t *testing.T, label string, a, b *MILPResult) {
	t.Helper()
	if a.Status != b.Status {
		t.Errorf("%s: status %v vs %v", label, a.Status, b.Status)
		return
	}
	if a.Status != StatusOptimal {
		return
	}
	//dartvet:allow floatcmp -- the determinism guarantee is bit-identical objectives, so the test compares exactly
	if a.Objective != b.Objective {
		t.Errorf("%s: objective %v vs %v", label, a.Objective, b.Objective)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: len(X) %d vs %d", label, len(a.X), len(b.X))
	}
	for j := range a.X {
		//dartvet:allow floatcmp -- the determinism guarantee is bit-identical solutions, so the test compares exactly
		if a.X[j] != b.X[j] {
			t.Errorf("%s: X[%d] = %v vs %v", label, j, a.X[j], b.X[j])
		}
	}
}

// TestNodeSolveAllocs is the allocation regression test for the reusable
// kernel: once a search's simplex state has warmed up, a steady-state node
// solve (reset + run + read the solution) performs zero heap allocations.
func TestNodeSolveAllocs(t *testing.T) {
	m := randomIntegerModel(2024)
	cs := buildCSR(m)
	s := new(simplex)
	x := make([]float64, m.NumVars())
	solveOnce := func() {
		s.reset(m, cs, SimplexOptions{}, nil, nil)
		if st, err := s.run(); err == nil && st == StatusOptimal {
			s.fillSolution(x)
		}
	}
	solveOnce() // warm up the backing arrays
	if allocs := testing.AllocsPerRun(200, solveOnce); allocs > 0 {
		t.Errorf("steady-state node solve allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkNodeSolve measures a steady-state node relaxation on the
// reusable kernel (the inner loop of branch and bound).
func BenchmarkNodeSolve(b *testing.B) {
	m := randomIntegerModel(2024)
	cs := buildCSR(m)
	s := new(simplex)
	x := make([]float64, m.NumVars())
	s.reset(m, cs, SimplexOptions{}, nil, nil)
	if _, err := s.run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset(m, cs, SimplexOptions{}, nil, nil)
		if _, err := s.run(); err != nil {
			b.Fatal(err)
		}
		s.fillSolution(x)
	}
}

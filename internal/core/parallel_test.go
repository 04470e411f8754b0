package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dart/internal/core"
	"dart/internal/milp"
	"dart/internal/runningex"
)

// multiErrorDB corrupts independent cells across several years so the
// prepared problem decomposes into multiple violated components.
func multiErrorDB(t *testing.T) map[[2]string]int64 {
	t.Helper()
	return map[[2]string]int64{
		{"2003", "cash sales"}:          170,
		{"2003", "ending cash balance"}: 999,
		{"2004", "receivables"}:         130,
		{"2004", "capital expenditure"}: 45,
	}
}

// TestComponentWorkersMatchSequential: solving components concurrently
// (MILPSolver.Workers) must not change the repair — components are
// independent and results merge in component order.
func TestComponentWorkersMatchSequential(t *testing.T) {
	run := func(s *core.MILPSolver) *core.Result {
		t.Helper()
		db := runningex.CorrectDatabase()
		corrupt(t, db, multiErrorDB(t))
		res, err := s.FindRepair(db, runningex.Constraints(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.StatusOptimal {
			t.Fatalf("status %v", res.Status)
		}
		return res
	}
	seq := run(&core.MILPSolver{Workers: 1})
	for _, workers := range []int{2, 4} {
		par := run(&core.MILPSolver{Workers: workers})
		if seq.Card != par.Card {
			t.Errorf("Workers=%d: card %d, want %d", workers, par.Card, seq.Card)
		}
		if seq.Repair.String() != par.Repair.String() {
			t.Errorf("Workers=%d: repairs differ:\nseq: %v\npar: %v", workers, par.Repair, seq.Repair)
		}
	}
}

// TestComponentErrorSurfacesOverSiblingCancel: when one component solve
// fails, siblings are cancelled; the error returned must be the real
// failure, never the context.Canceled a cancelled sibling reports.
func TestComponentErrorSurfacesOverSiblingCancel(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, multiErrorDB(t))
	// A negative simplex iteration budget makes every component's LP fail
	// immediately with a real error, racing the sibling cancellation.
	s := &core.MILPSolver{
		Workers: 4,
		Options: milp.MILPOptions{Simplex: milp.SimplexOptions{MaxIters: -1}},
	}
	_, err := s.FindRepair(db, runningex.Constraints(), nil)
	if err == nil {
		t.Fatal("expected an error from the crippled simplex")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("sibling cancellation masked the real error: %v", err)
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestCallerCancelStillSurfaces: when the caller's own context is
// cancelled, that cancellation is what comes back (not swallowed by the
// deterministic error selection).
func TestCallerCancelStillSurfaces(t *testing.T) {
	db := runningex.CorrectDatabase()
	corrupt(t, db, multiErrorDB(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &core.MILPSolver{Workers: 2}
	_, err := s.FindRepairContext(ctx, db, runningex.Constraints(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

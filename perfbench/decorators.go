package main

import (
	"context"
	"sync"
	"time"

	"dart/internal/core"
	"dart/internal/store"
	"dart/internal/validate"
)

// timedSolver wraps a core.Solver and accounts its SolveProblem calls:
// busy time, calls, branch-and-bound nodes and component-level memo use.
// Results and errors pass through unchanged. FindRepair is promoted from
// the embedded solver untimed (the pipeline never calls it).
type timedSolver struct {
	core.Solver
	calls      int
	busy       time.Duration
	nodes      int
	components int // violated components the solves had to resolve
	reused     int // of those, served from the prepared problem's memo
}

// SolveProblem implements core.Solver.
func (s *timedSolver) SolveProblem(ctx context.Context, prob *core.Problem, forced map[core.Item]float64) (*core.Result, error) {
	start := time.Now()
	r, err := s.Solver.SolveProblem(ctx, prob, forced)
	s.busy += time.Since(start)
	s.calls++
	if r != nil {
		s.nodes += r.Nodes
		s.components += r.Components
		s.reused += r.ComponentsReused
	}
	return r, err
}

// memoHitRatio is the share of the components the solves had to resolve
// that the prepared problem's memo served without solver work.
func (s *timedSolver) memoHitRatio() ratio { return ratio{s.reused, s.components} }

// timedOperator wraps a validate.Operator and accounts its decisions and
// the time spent deciding. Decisions and errors pass through unchanged.
type timedOperator struct {
	validate.Operator
	decisions int
	busy      time.Duration
}

// Review implements validate.Operator.
func (o *timedOperator) Review(u core.Update) (validate.Decision, error) {
	start := time.Now()
	d, err := o.Operator.Review(u)
	o.busy += time.Since(start)
	o.decisions++
	return d, err
}

// timedStore wraps a store.JobStore and accounts appends, snapshots and
// replay from outside the store. It is safe for concurrent use, as the
// JobStore contract requires; records, blobs and errors pass through
// unchanged.
type timedStore struct {
	store.JobStore

	mu        sync.Mutex
	appends   int
	appendDur time.Duration
	snapshots int
	snapDur   time.Duration
	replayDur time.Duration
}

// Append implements store.JobStore.
func (s *timedStore) Append(rec *store.Record) (uint64, error) {
	start := time.Now()
	seq, err := s.JobStore.Append(rec)
	d := time.Since(start)
	s.mu.Lock()
	s.appends++
	s.appendDur += d
	s.mu.Unlock()
	return seq, err
}

// WriteSnapshot implements store.JobStore.
func (s *timedStore) WriteSnapshot(state []byte) error {
	start := time.Now()
	err := s.JobStore.WriteSnapshot(state)
	d := time.Since(start)
	s.mu.Lock()
	s.snapshots++
	s.snapDur += d
	s.mu.Unlock()
	return err
}

// Replay implements store.JobStore.
func (s *timedStore) Replay(fn func(*store.Record) error) ([]byte, error) {
	start := time.Now()
	snap, err := s.JobStore.Replay(fn)
	d := time.Since(start)
	s.mu.Lock()
	s.replayDur += d
	s.mu.Unlock()
	return snap, err
}

// storeTimes is a consistent copy of a timedStore's counters.
type storeTimes struct {
	appends, snapshots            int
	appendDur, snapDur, replayDur time.Duration
}

// times snapshots the counters.
func (s *timedStore) times() storeTimes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeTimes{s.appends, s.snapshots, s.appendDur, s.snapDur, s.replayDur}
}

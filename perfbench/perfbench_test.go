package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"dart"
	"dart/internal/aggrcons"
	"dart/internal/core"
	"dart/internal/relational"
	"dart/internal/store"
	"dart/internal/validate"
)

// fakeSolver returns a fixed result and error.
type fakeSolver struct {
	res *core.Result
	err error
}

func (f *fakeSolver) Name() string { return "fake" }
func (f *fakeSolver) SolveProblem(context.Context, *core.Problem, map[core.Item]float64) (*core.Result, error) {
	return f.res, f.err
}
func (f *fakeSolver) FindRepair(*relational.Database, []*aggrcons.Constraint, map[core.Item]float64) (*core.Result, error) {
	return f.res, f.err
}

func TestTimedSolverPassesThrough(t *testing.T) {
	want := &core.Result{Nodes: 7, Components: 4, ComponentsReused: 3}
	boom := errors.New("boom")
	s := &timedSolver{Solver: &fakeSolver{res: want}}
	got, err := s.SolveProblem(context.Background(), nil, nil)
	if got != want || err != nil {
		t.Fatalf("SolveProblem = %p, %v; want %p, nil", got, err, want)
	}
	s.Solver = &fakeSolver{err: boom}
	if got, err := s.SolveProblem(context.Background(), nil, nil); got != nil || err != boom {
		t.Fatalf("SolveProblem = %v, %v; want nil, boom", got, err)
	}
	if s.calls != 2 || s.nodes != 7 || s.busy <= 0 {
		t.Errorf("calls %d nodes %d busy %v; want 2, 7, > 0", s.calls, s.nodes, s.busy)
	}
	// The memo hit ratio's base is the components the solves had to resolve.
	if r := s.memoHitRatio(); r != (ratio{3, 4}) {
		t.Errorf("memoHitRatio = %v, want 3/4", r)
	}
}

// TestTimedSolverOnRealProblem checks the decorator against the MILP
// solver itself: the same repair as an undecorated solve.
func TestTimedSolverOnRealProblem(t *testing.T) {
	d := wideBudgets(3, 1)[0]
	md, err := parseScenarios([]string{"cashbudget"})
	if err != nil {
		t.Fatal(err)
	}
	acq, err := (&dart.Pipeline{Metadata: md["cashbudget"]}).Acquire(d.src)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(s core.Solver) string {
		prob, err := core.Prepare(acq.Database, md["cashbudget"].Constraints())
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.SolveProblem(context.Background(), prob, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Repair.String()
	}
	if plain, timed := solve(dart.NewMILPSolver()), solve(&timedSolver{Solver: dart.NewMILPSolver()}); plain != timed {
		t.Errorf("decorated repair %s, plain %s", timed, plain)
	}
}

// fakeOperator returns a fixed decision and error.
type fakeOperator struct {
	d   validate.Decision
	err error
}

func (f *fakeOperator) Review(core.Update) (validate.Decision, error) { return f.d, f.err }

func TestTimedOperatorPassesThrough(t *testing.T) {
	want := validate.Decision{Accepted: false, ActualValue: 220}
	o := &timedOperator{Operator: &fakeOperator{d: want}}
	if got, err := o.Review(core.Update{}); got != want || err != nil {
		t.Fatalf("Review = %+v, %v; want %+v, nil", got, err, want)
	}
	o.Operator = &fakeOperator{err: validate.ErrInputClosed}
	if _, err := o.Review(core.Update{}); err != validate.ErrInputClosed {
		t.Fatalf("Review error = %v, want ErrInputClosed", err)
	}
	if o.decisions != 2 {
		t.Errorf("decisions = %d, want 2", o.decisions)
	}
}

// failingStore fails every call with err.
type failingStore struct {
	store.JobStore
	err error
}

func (f *failingStore) Append(*store.Record) (uint64, error)             { return 0, f.err }
func (f *failingStore) WriteSnapshot([]byte) error                       { return f.err }
func (f *failingStore) Replay(func(*store.Record) error) ([]byte, error) { return nil, f.err }

func TestTimedStorePassesThrough(t *testing.T) {
	s := &timedStore{JobStore: store.NewMem()}
	for i := 1; i <= 3; i++ {
		seq, err := s.Append(&store.Record{Type: store.RecSubmit, JobID: fmt.Sprint("job-", i)})
		if err != nil || seq != uint64(i) {
			t.Fatalf("Append #%d = %d, %v", i, seq, err)
		}
	}
	if err := s.WriteSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&store.Record{Type: store.RecSubmit, JobID: "job-4"}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	snap, err := s.Replay(func(r *store.Record) error { ids = append(ids, r.JobID); return nil })
	if err != nil || string(snap) != "state" || fmt.Sprint(ids) != "[job-4]" {
		t.Fatalf("Replay = %q, %v, records %v; want state, nil, [job-4]", snap, err, ids)
	}
	tm := s.times()
	if tm.appends != 4 || tm.snapshots != 1 {
		t.Errorf("appends %d snapshots %d; want 4, 1", tm.appends, tm.snapshots)
	}

	boom := errors.New("disk full")
	f := &timedStore{JobStore: &failingStore{err: boom}}
	if _, err := f.Append(&store.Record{}); err != boom {
		t.Errorf("Append error = %v", err)
	}
	if err := f.WriteSnapshot(nil); err != boom {
		t.Errorf("WriteSnapshot error = %v", err)
	}
	if _, err := f.Replay(nil); err != boom {
		t.Errorf("Replay error = %v", err)
	}
}

func TestTimedStoreConcurrent(t *testing.T) {
	s := &timedStore{JobStore: store.NewMem()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := s.Append(&store.Record{Type: store.RecSubmit}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := s.times().appends; n != 400 {
		t.Errorf("appends = %d, want 400", n)
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailLatency(t *testing.T) {
	cases := []struct {
		n       int
		value   float64
		pct     float64
		samples int
	}{
		{n: 30, value: 20, pct: 100 * 20.0 / 30, samples: 30},
		{n: 1000, value: 990, pct: 99, samples: 1000},
		// Thinned evenly to 1000 samples: 2000, 1998, ..., 2 (the input
		// is reversed below).
		{n: 2000, value: 1980, pct: 99, samples: 1000},
		// Too few samples for any percentile with 10 beyond: the maximum.
		{n: 10, value: 10, pct: 100, samples: 10},
	}
	for _, c := range cases {
		s := seq(c.n)
		// Reverse, so the rule cannot rely on sorted input.
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		got := tailLatency(s)
		if got.Value != c.value || got.Samples != c.samples || fmt.Sprintf("%.6f", got.Percentile) != fmt.Sprintf("%.6f", c.pct) {
			t.Errorf("n=%d: tail %+v, want value %v pct %v samples %d", c.n, got, c.value, c.pct, c.samples)
		}
		if c.n > tailBeyond {
			beyond := 0
			for _, v := range thin(s, tailSamples) {
				if v > got.Value {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
			}
		}
	}
}

func TestWindow(t *testing.T) {
	w := window{size: 2}
	for _, d := range []time.Duration{time.Second, time.Second, 500 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		w.add(d)
	}
	// Two full windows (2 items in 2s, 2 items in 1s); the fifth item is
	// a partial window and is not reported.
	if fmt.Sprint(w.rates) != "[1 2]" {
		t.Errorf("rates = %v, want [1 2]", w.rates)
	}
}

func TestWindowRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	var subs []submission
	for i := 0; i <= 2*jobWindow; i++ {
		subs = append(subs, submission{done: t0.Add(time.Duration(i) * 10 * time.Millisecond)})
	}
	subs = append(subs, submission{err: errors.New("refused"), done: t0.Add(time.Hour)})
	rates := windowRates(subs)
	if len(rates) != 2 || rates[0] != 100 || rates[1] != 100 {
		t.Errorf("windowRates = %v, want two windows of 100/s", rates)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestRatioBases(t *testing.T) {
	if v := (ratio{}).Value(); v != 0 {
		t.Errorf("empty base = %v, want 0", v)
	}
	if s := (ratio{3, 12}).String(); s != "0.25 (3/12)" {
		t.Errorf("String = %q", s)
	}
	// Repaired share: base is every attempted document.
	if r := (&result{attempted: 10, failed: 3}).repairedShare(); r != (ratio{7, 10}) {
		t.Errorf("repairedShare = %v", r)
	}
	// Match ratio: base is matched plus skipped rows.
	if r := (&layerTimes{rows: 9, skipped: 1}).matchRatio(); r != (ratio{9, 10}) {
		t.Errorf("matchRatio = %v", r)
	}
	// Truth share: base is fixed plus still-wrong cells.
	if r := truthShare(3, 1); r != (ratio{3, 4}) {
		t.Errorf("truthShare = %v", r)
	}
	// Cache hit ratio: base is every lookup, hits plus misses.
	c := map[string]float64{"dartd_result_cache_hits_total": 2, "dartd_result_cache_misses_total": 6}
	if r := cacheHitRatio(c); r != (ratio{2, 8}) {
		t.Errorf("cacheHitRatio = %v", r)
	}
}

func TestDocFor(t *testing.T) {
	fresh := 0
	for k := 0; k < roundJobs; k++ {
		got := docFor(k)
		if k%10 == 9 {
			if want := docFor(k - 7); got != want {
				t.Fatalf("submission %d resubmits doc %d, want %d", k, got, want)
			}
			continue
		}
		if got != fresh {
			t.Fatalf("submission %d = doc %d, want %d", k, got, fresh)
		}
		fresh++
	}
	if fresh != roundJobs-roundJobs/10 {
		t.Errorf("%d fresh documents per round, want %d", fresh, roundJobs-roundJobs/10)
	}
}

func TestTruthCells(t *testing.T) {
	mk := func(vals ...int64) *relational.Database {
		db := relational.NewDatabase()
		r := db.MustAddRelation(relational.MustSchema("R",
			relational.Attribute{Name: "K", Domain: relational.DomainInt},
			relational.Attribute{Name: "V", Domain: relational.DomainInt}))
		for i, v := range vals {
			r.MustInsert(relational.Int(int64(i)), relational.Int(v))
		}
		if err := db.DesignateMeasure("R", "V"); err != nil {
			t.Fatal(err)
		}
		return db
	}
	truth := mk(1, 2, 3)
	// Cell 0 misread and fixed; cell 1 correct but changed by the repair;
	// cell 2 misread and left wrong.
	fixed, wrong := truthCells(mk(9, 2, 8), mk(1, 7, 8), truth)
	if fixed != 1 || wrong != 2 {
		t.Errorf("truthCells = %d fixed, %d wrong; want 1, 2", fixed, wrong)
	}
	// A dropped row counts its value as wrong.
	if _, wrong := truthCells(mk(1, 2), mk(1, 2), truth); wrong != 1 {
		t.Errorf("dropped row: %d wrong, want 1", wrong)
	}
	if !equalDB(truth, mk(1, 2, 3)) || equalDB(truth, mk(1, 2, 4)) || equalDB(truth, mk(1, 2)) {
		t.Error("equalDB disagrees with the tuples")
	}
}

func TestErrClass(t *testing.T) {
	for msg, want := range map[string]string{
		"dart: validation loop: validate: repair computation ended with status iteration-limit": "iteration_limit",
		"dart: no repair found (status infeasible)":                                             "infeasible",
		"dart: repair: context deadline exceeded":                                               "deadline",
		"dart: extraction: bad pattern":                                                         "other",
	} {
		if got := errClass(errors.New(msg)); got != want {
			t.Errorf("errClass(%q) = %s, want %s", msg, got, want)
		}
	}
}

func TestDigest(t *testing.T) {
	var a, b, c digest
	a.add(0, "{}", 0)
	a.add(1, "{ x }", 1)
	b.add(0, "{}", 0)
	b.add(1, "{ x }", 1)
	c.add(0, "{ x }", 1)
	c.add(1, "{}", 0)
	if a.sum() != b.sum() {
		t.Error("equal outcomes give different digests")
	}
	if a.sum() == c.sum() {
		t.Error("outcomes in another order give the same digest")
	}
}

func TestInputsFollowSeed(t *testing.T) {
	for name, gen := range map[string]func(int64, int) []doc{"small": smallDocs, "review": reviewBudgets} {
		a, b, c := gen(7, 6), gen(7, 6), gen(8, 6)
		same := true
		for i := range a {
			if a[i].src != b[i].src {
				t.Errorf("%s: seed 7 gives two different documents %d", name, i)
			}
			same = same && a[i].src == c[i].src
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same documents", name)
		}
	}
}

// TestTracedMatchesPipeline: the traced layer sequence returns the same
// outcome as dart.Pipeline on every kind of document, supervised or not.
func TestTracedMatchesPipeline(t *testing.T) {
	for _, w := range []*libWorkload{{docs: smallDocs(5, 12)}, {docs: reviewBudgets(5, 4), review: true}} {
		md, err := parseScenarios([]string{"cashbudget", "catalog", "balancesheet"})
		if err != nil {
			t.Fatal(err)
		}
		lt := newLayerTimes()
		for i, d := range w.docs {
			res, err := w.pipeline(md[d.scenario], d).Process(d.src)
			tres, terr := lt.process(md[d.scenario], d, w.review)
			if o, to := outcomeOf(res, err), outcomeOf(tres, terr); o != to {
				t.Errorf("doc %d (%s): traced %+v, pipeline %+v", i, d.scenario, to, o)
			}
		}
		if lt.docs != len(w.docs) || lt.wrapper <= 0 {
			t.Errorf("layer accounting: %d docs, wrapper %v", lt.docs, lt.wrapper)
		}
		if w.review && (lt.operator.decisions == 0 || lt.solver.calls <= len(w.docs)) {
			t.Errorf("review loop: %d decisions, %d solves for %d docs", lt.operator.decisions, lt.solver.calls, len(w.docs))
		}
	}
}

func TestAddLayersRejectsUndeclared(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undeclared metric accepted")
		}
	}()
	(&result{}).addLayers(map[string]float64{"nope.ms": 1})
}

func TestAddLayersReportsEveryMetric(t *testing.T) {
	r := &result{}
	r.addLayers(map[string]float64{"wrapper.ms": 2})
	if len(r.metrics) != len(perLayerMetrics) {
		t.Fatalf("%d metrics, want %d", len(r.metrics), len(perLayerMetrics))
	}
	for _, m := range r.metrics {
		if (m.name == "wrapper.ms") != (m.value == 2) {
			t.Errorf("%s = %v", m.name, m.value)
		}
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root declares
// exactly the metrics, units and workloads this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestDartdRun runs one traced and one untraced round of the
// dartd-history workload end to end: history build, boot, clients, result
// checks and the per-layer accounting.
func TestDartdRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots dartd and serves hundreds of jobs")
	}
	workDir = t.TempDir()
	defer func() { workDir = ".bench_build" }()
	for _, traced := range []bool{false, true} {
		r, err := runDartd(1, time.Millisecond, traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) > 0 {
			t.Fatalf("traced=%v: %v", traced, r.problems)
		}
		if r.attempted != roundJobs {
			t.Errorf("traced=%v: attempted %d, want one round of %d", traced, r.attempted, roundJobs)
		}
		got := map[string]float64{}
		for _, m := range r.metrics {
			got[m.name] = m.value
		}
		if traced {
			if got["store.appends_per_job"] <= 0 || got["service.cache_hit_ratio"] <= 0 || got["store.replay_s"] <= 0 {
				t.Errorf("store or service not accounted: %v", got)
			}
		} else if got["docs_per_s"] <= 0 || got["setup_s"] <= 0 || got["repaired_share"] != 1 {
			t.Errorf("end-to-end metrics: %v", got)
		}
	}
}

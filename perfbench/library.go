package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dart"
	"dart/internal/aggrcons"
	"dart/internal/convert"
	"dart/internal/core"
	"dart/internal/metadata"
	"dart/internal/relational"
	"dart/internal/validate"
)

// setupRepeats is how many times a library run sets up the program;
// setup_s is the median, so it reads the warm cost steadily.
const setupRepeats = 1001

// libWorkload streams a fixed pool of documents through dart.Pipeline in
// one goroutine, pass after pass, until the run's time is up (the first
// pass always completes, so every document is checked and digested).
type libWorkload struct {
	docs []doc
	// review runs every document through the operator loop with an
	// OracleOperator reviewing one update per iteration.
	review bool
	// window is the number of consecutive documents per throughput
	// window; docs_per_s is the median window rate, so a disturbance that
	// slows part of a run does not move it.
	window int
}

// pipeline builds the pipeline the untraced run calls for d.
func (w *libWorkload) pipeline(md *metadata.Metadata, d doc) *dart.Pipeline {
	p := &dart.Pipeline{Metadata: md}
	if w.review {
		p.Operator = &dart.OracleOperator{Truth: d.truth}
		p.ReviewPerIteration = 1
	}
	return p
}

// parseScenarios is the library user's set-up: parse the metadata of
// every scenario the workload reads.
func parseScenarios(names []string) (map[string]*metadata.Metadata, error) {
	out := make(map[string]*metadata.Metadata, len(names))
	for _, n := range names {
		md, err := dart.ParseMetadata(scenarioSources[n]())
		if err != nil {
			return nil, fmt.Errorf("parsing %s metadata: %w", n, err)
		}
		out[n] = md
	}
	return out, nil
}

// outcome is one document's result as the digest sees it.
type outcome struct {
	line   string // the repair, or "error:<class>"
	card   int
	failed bool
	class  string
}

func outcomeOf(res *dart.Result, err error) outcome {
	if err != nil {
		c := errClass(err)
		return outcome{line: "error:" + c, failed: true, class: c}
	}
	return outcome{line: res.Repair.String(), card: res.Repair.Card()}
}

// errClass labels a failed document: the solver gave up at its node or
// iteration limit, the repair problem was infeasible (typically because
// acquisition dropped rows), the deadline passed, or something else.
func errClass(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "iteration-limit"):
		return "iteration_limit"
	case strings.Contains(msg, "infeasible"), strings.Contains(msg, "no repair found"):
		return "infeasible"
	case strings.Contains(msg, "deadline"):
		return "deadline"
	default:
		return "other"
	}
}

// failureClasses are the labels errClass produces, in report order.
var failureClasses = []string{"infeasible", "iteration_limit", "deadline", "other"}

// truthCells compares the measure values of a repaired database with the
// ground truth, tuples aligned by position. fixed counts values the
// acquisition got wrong that the repair set right; wrong counts values
// still differing from the truth, whether misread and left, or correct and
// changed by the repair.
func truthCells(acquired, repaired, truth *relational.Database) (fixed, wrong int) {
	for _, m := range truth.Measures() {
		tr, ar, rr := truth.Relation(m.Relation), acquired.Relation(m.Relation), repaired.Relation(m.Relation)
		if ar.Len() != tr.Len() || rr.Len() != tr.Len() {
			// Acquisition dropped rows: the tuples no longer align, so
			// only the missing values are counted.
			wrong += abs(tr.Len() - min(ar.Len(), rr.Len()))
			continue
		}
		for i, tt := range tr.Tuples() {
			want := tt.Get(m.Attribute).String()
			switch {
			case rr.Tuples()[i].Get(m.Attribute).String() != want:
				wrong++
			case ar.Tuples()[i].Get(m.Attribute).String() != want:
				fixed++
			}
		}
	}
	return fixed, wrong
}

// layerTimes accumulates the traced run's per-layer accounting. Its
// process method calls the same public functions, in the same order, as
// dart.Pipeline.Process, timing each from outside.
type layerTimes struct {
	docs                                                   int
	convert, wrapper, dbgen, check, prepare, verify, valid time.Duration
	rows, skipped, stringRepairs, rowErrors, violations    int
	vars, sysRows, components, iterations                  int
	solver                                                 timedSolver
	operator                                               timedOperator
}

func newLayerTimes() *layerTimes {
	return &layerTimes{solver: timedSolver{Solver: dart.NewMILPSolver()}}
}

// process runs one document through the pipeline's layers.
func (lt *layerTimes) process(md *metadata.Metadata, d doc, review bool) (*dart.Result, error) {
	lt.docs++
	t := time.Now()
	html, err := convert.ToHTML(d.src, convert.Detect(d.src))
	lt.convert += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("dart: format conversion: %w", err)
	}
	t = time.Now()
	instances, skipped, err := md.NewWrapper().Extract(html)
	lt.wrapper += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("dart: extraction: %w", err)
	}
	t = time.Now()
	db, rowErrs, err := md.NewGenerator().Generate(instances)
	lt.dbgen += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("dart: database generation: %w", err)
	}
	t = time.Now()
	viols, err := aggrcons.Check(db, md.Constraints(), 1e-9)
	lt.check += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("dart: consistency check: %w", err)
	}
	var repairs []dart.StringRepair
	for _, in := range instances {
		repairs = append(repairs, in.Corrections()...)
	}
	lt.rows += len(instances)
	lt.skipped += len(skipped)
	lt.stringRepairs += len(repairs)
	lt.rowErrors += len(rowErrs)
	lt.violations += len(viols)
	res := &dart.Result{Acquisition: &dart.Acquisition{
		HTML: html, Instances: instances, SkippedRows: skipped, RowErrors: rowErrs,
		Database: db, Violations: viols, StringRepairs: repairs,
	}}
	if len(viols) == 0 {
		res.Repair, res.Repaired = &core.Repair{}, db
		return res, nil
	}

	t = time.Now()
	prob, err := core.Prepare(db, md.Constraints())
	lt.prepare += time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("dart: repair: %w", err)
	}
	defer func() {
		lt.vars += prob.N()
		lt.sysRows += len(prob.System().Rows)
		lt.components += len(prob.Components())
	}()
	if !review {
		r, err := lt.solver.SolveProblem(context.Background(), prob, nil)
		if err != nil {
			return nil, fmt.Errorf("dart: repair: %w", err)
		}
		if r.Repair == nil {
			return nil, fmt.Errorf("dart: no repair found (status %v)", r.Status)
		}
		t = time.Now()
		repaired, err := core.VerifyRepairs(db, md.Constraints(), r.Repair, 1e-6)
		lt.verify += time.Since(t)
		if err != nil {
			return nil, err
		}
		res.Repair, res.Repaired = r.Repair, repaired
		return res, nil
	}
	lt.operator.Operator = &validate.OracleOperator{Truth: d.truth}
	solver0, op0 := lt.solver.busy, lt.operator.busy
	t = time.Now()
	out, err := (&validate.Session{
		DB: db, Constraints: md.Constraints(), Problem: prob,
		Solver: &lt.solver, Operator: &lt.operator, ReviewPerIteration: 1,
	}).Run()
	lt.valid += time.Since(t) - (lt.solver.busy - solver0) - (lt.operator.busy - op0)
	if err != nil {
		return nil, fmt.Errorf("dart: validation loop: %w", err)
	}
	lt.iterations += out.Iterations
	res.Repair, res.Repaired, res.Validation = out.Final, out.Repaired, out
	return res, nil
}

// matchRatio is the share of document rows the wrapper saw (matched or
// skipped) that it matched to a row pattern.
func (lt *layerTimes) matchRatio() ratio { return ratio{lt.rows, lt.rows + lt.skipped} }

// truthShare is the share of cells that were, or became, wrong that the
// repaired databases have right: fixed over fixed plus still wrong.
func truthShare(fixed, wrong int) ratio { return ratio{fixed, fixed + wrong} }

// run measures the workload for the given time. With traced set, every
// document is processed twice per visit — once through dart.Pipeline and
// once through layerTimes.process, alternating which goes first — so the
// per-layer table, the tracing overhead and the untraced/traced digest
// comparison all come from the same documents.
func (w *libWorkload) run(seconds time.Duration, traced bool) (*result, error) {
	seen := map[string]bool{}
	var names []string
	for _, d := range w.docs {
		if !seen[d.scenario] {
			seen[d.scenario] = true
			names = append(names, d.scenario)
		}
	}
	sort.Strings(names)
	var setups []float64
	var md map[string]*metadata.Metadata
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		m, err := parseScenarios(names)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return nil, err
		}
		md = m
	}

	r := &result{}
	win := window{size: w.window}
	lt := newLayerTimes()
	mem := newMemSampler()
	runtime.GC()
	var (
		visits                = make([][]float64, len(w.docs)) // latency of every visit, per document
		busy, tracedBusy      time.Duration
		peak, allocs, gcs     uint64
		fixed, wrong, truthOK int
		classes               = map[string]int{}
		first                 = make([]string, len(w.docs))
		firstNodes            = make([]int, len(w.docs))
		poolFailed            int
		revisits, nodesMoved  int
		untracedDig, traceDig digest
	)
	deadline := time.Now().Add(seconds)
passes:
	for pass := 0; ; pass++ {
		for i, d := range w.docs {
			if pass > 0 && time.Now().After(deadline) {
				break passes
			}
			m := md[d.scenario]
			var tres *dart.Result
			var terr error
			traceFirst := traced && (pass+i)%2 == 1
			if traceFirst {
				t := time.Now()
				tres, terr = lt.process(m, d, w.review)
				tracedBusy += time.Since(t)
			}
			_, a0, g0 := mem.read()
			t := time.Now()
			res, err := w.pipeline(m, d).Process(d.src)
			dt := time.Since(t)
			live, a1, g1 := mem.read()
			if traced && !traceFirst {
				t := time.Now()
				tres, terr = lt.process(m, d, w.review)
				tracedBusy += time.Since(t)
			}
			busy += dt
			win.add(dt)
			visits[i] = append(visits[i], ms(dt))
			allocs += a1 - a0
			gcs += g1 - g0
			peak = max(peak, live)

			r.attempted++
			o := outcomeOf(res, err)
			if o.failed {
				r.failed++
				classes[o.class]++
			}
			if pass == 0 {
				first[i] = o.line
				untracedDig.add(i, o.line, o.card)
				if o.failed {
					poolFailed++
				} else {
					firstNodes[i] = res.SolverNodes
					r.checkRepaired(i, m, res)
					f, wr := truthCells(res.Acquisition.Database, res.Repaired, d.truth)
					fixed += f
					wrong += wr
					if equalDB(res.Repaired, d.truth) {
						truthOK++
					}
				}
			} else {
				if o.line != first[i] {
					r.problem("doc %d pass %d: outcome %q differs from pass 0 %q", i, pass, o.line, first[i])
				}
				if !o.failed {
					revisits++
					if res.SolverNodes != firstNodes[i] {
						nodesMoved++
					}
				}
			}
			if traced {
				to := outcomeOf(tres, terr)
				if to.line != o.line {
					r.problem("doc %d pass %d: traced outcome %q differs from untraced %q", i, pass, to.line, o.line)
				}
				if pass == 0 {
					traceDig.add(i, to.line, to.card)
					if !to.failed && !o.failed && !equalDB(tres.Repaired, res.Repaired) {
						r.problem("doc %d: traced repaired database differs from untraced", i)
					}
				}
			}
		}
		if time.Now().After(deadline) {
			break
		}
	}
	r.digest = untracedDig.sum()
	if traced && traceDig.sum() != r.digest {
		r.problem("traced digest %s differs from untraced %s", traceDig.sum(), r.digest)
	}

	// One latency sample per document, the median of its visits, so the
	// tail reflects the documents rather than a passing disturbance, and
	// its percentile is fixed by the pool size.
	lat := make([]float64, len(visits))
	for i, v := range visits {
		lat[i] = median(v)
	}
	poolOK := len(w.docs) - poolFailed
	// Parallel branch and bound explores a schedule-dependent number of
	// nodes; the run reports how often a revisit's count moved.
	r.notef("solver nodes: %d of %d revisits differ from the document's first visit", nodesMoved, revisits)
	if !traced {
		tl := tailLatency(lat)
		r.add("docs_per_s", median(win.rates), "1/s")
		r.add("latency_p50_ms", median(lat), "ms")
		r.add("latency_tail_ms", tl.Value, "ms")
		r.add("repaired_share", r.repairedShare().Value(), "ratio")
		r.add("truth_recovered_share", truthShare(fixed, wrong).Value(), "ratio")
		r.add("setup_s", median(setups), "s")
		r.add("peak_heap_mb", mb(peak), "MiB")
		r.notef("docs/s: median over %d windows of %d documents (mean over the run %.4g)", len(win.rates), w.window, float64(r.attempted)/busy.Seconds())
		r.notef("latency: one sample per document (median of its %d-%d visits); tail p%.4g over %d samples",
			len(visits[len(visits)-1]), len(visits[0]), tl.Percentile, tl.Samples)
		r.notef("truth recovered: cells %s, documents %s", truthShare(fixed, wrong), ratio{truthOK, poolOK})
		return r, nil
	}

	n := lt.docs
	s := &lt.solver
	shares := []layerShare{
		{"convert", lt.convert}, {"wrapper", lt.wrapper}, {"dbgen", lt.dbgen},
		{"check", lt.check}, {"prepare", lt.prepare}, {"resolve", s.busy},
		{"verify", lt.verify}, {"validate", lt.valid}, {"operator", lt.operator.busy},
	}
	r.table = whereTimeGoes("documents", shares, nil, tracedBusy, n,
		overheadLine(float64(r.attempted)/busy.Seconds(), float64(n)/tracedBusy.Seconds()))
	tl := tailLatency(lat)
	layer := map[string]float64{
		"convert.ms": per(ms(lt.convert), n),
		"wrapper.ms": per(ms(lt.wrapper), n), "wrapper.rows": per(float64(lt.rows), n),
		"wrapper.skipped_rows": per(float64(lt.skipped), n), "wrapper.string_repairs": per(float64(lt.stringRepairs), n),
		"wrapper.match_ratio": lt.matchRatio().Value(),
		"dbgen.ms":            per(ms(lt.dbgen), n), "dbgen.row_errors": per(float64(lt.rowErrors), n),
		"check.ms": per(ms(lt.check), n), "check.violations": per(float64(lt.violations), n),
		"prepare.ms": per(ms(lt.prepare), n), "prepare.vars": per(float64(lt.vars), n),
		"prepare.rows": per(float64(lt.sysRows), n), "prepare.components": per(float64(lt.components), n),
		"resolve.ms": per(ms(s.busy), n), "resolve.calls": per(float64(s.calls), n),
		"resolve.nodes": per(float64(s.nodes), n), "resolve.components_solved": per(float64(s.components-s.reused), n),
		"resolve.memo_hit_ratio": s.memoHitRatio().Value(),
		"verify.ms":              per(ms(lt.verify), n),
		"validate.ms":            per(ms(lt.valid), n), "validate.iterations": per(float64(lt.iterations), n),
		"operator.decisions": per(float64(lt.operator.decisions), n), "operator.ms": per(ms(lt.operator.busy), n),
		"decisions_per_doc": per(float64(lt.operator.decisions), n),
		"alloc_kb_per_doc":  per(float64(allocs)/1024, r.attempted), "gc.cycles_per_doc": per(float64(gcs), r.attempted),
		"latency_tail.percentile": tl.Percentile, "latency_tail.samples": float64(tl.Samples),
		"truth_docs_share": ratio{truthOK, poolOK}.Value(),
	}
	for _, c := range failureClasses {
		layer["failed."+c] = float64(classes[c])
	}
	r.addLayers(layer)
	r.notef("resolve: %d calls, %d nodes, memo hits %s of components to resolve", s.calls, s.nodes, s.memoHitRatio())
	r.notef("wrapper: match ratio %s of document rows", lt.matchRatio())
	return r, nil
}

// equalDB reports whether two databases hold the same tuples in the same
// relations and order.
func equalDB(a, b *relational.Database) bool {
	names := a.RelationNames()
	if fmt.Sprint(names) != fmt.Sprint(b.RelationNames()) {
		return false
	}
	for _, n := range names {
		ta, tb := a.Relation(n).Tuples(), b.Relation(n).Tuples()
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i].String() != tb[i].String() {
				return false
			}
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

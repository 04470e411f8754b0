// Command perfbench is the repository benchmark. It generates one seeded
// workload, runs it through the DART pipeline (or an in-process dartd) for
// a fixed time, checks every output, and prints one JSON result line:
//
//	perfbench --workload small-docs --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, timed from this package around the
// public calls of each layer, preceded by a "where the time goes" table.
// run.sh builds the command from the checkout's sources and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dart"
	"dart/internal/aggrcons"
	"dart/internal/metadata"
)

// workDir holds everything the benchmark leaves behind in the checkout:
// the build, the dartd history and the digests of earlier runs. Tests
// point it at a temporary directory.
var workDir = ".bench_build"

// workloads maps each workload name to its input generator and runner.
var workloads = map[string]func(seed int64, seconds time.Duration, traced bool) (*result, error){
	"small-docs": func(seed int64, seconds time.Duration, traced bool) (*result, error) {
		return (&libWorkload{docs: smallDocs(seed, 600), window: 50}).run(seconds, traced)
	},
	"wide-budget": func(seed int64, seconds time.Duration, traced bool) (*result, error) {
		return (&libWorkload{docs: wideBudgets(seed, 30), window: 3}).run(seconds, traced)
	},
	"review-loop": func(seed int64, seconds time.Duration, traced bool) (*result, error) {
		return (&libWorkload{docs: reviewBudgets(seed, 300), review: true, window: 10}).run(seconds, traced)
	},
	"dartd-history": runDartd,
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEndMetrics is every metric an untraced run reports, on every
// workload.
var endToEndMetrics = []metricSpec{
	{"docs_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
	{"repaired_share", "ratio"}, {"truth_recovered_share", "ratio"},
	{"setup_s", "s"}, {"peak_heap_mb", "MiB"},
}

// perLayerMetrics is every metric a traced run reports, on every workload
// (a layer a workload does not exercise reads 0).
var perLayerMetrics = []metricSpec{
	{"convert.ms", "ms"},
	{"wrapper.ms", "ms"}, {"wrapper.rows", "count"}, {"wrapper.skipped_rows", "count"},
	{"wrapper.string_repairs", "count"}, {"wrapper.match_ratio", "ratio"},
	{"dbgen.ms", "ms"}, {"dbgen.row_errors", "count"},
	{"check.ms", "ms"}, {"check.violations", "count"},
	{"prepare.ms", "ms"}, {"prepare.vars", "count"}, {"prepare.rows", "count"}, {"prepare.components", "count"},
	{"resolve.ms", "ms"}, {"resolve.calls", "count"}, {"resolve.nodes", "count"},
	{"resolve.components_solved", "count"}, {"resolve.memo_hit_ratio", "ratio"},
	{"verify.ms", "ms"},
	{"validate.ms", "ms"}, {"validate.iterations", "count"},
	{"operator.decisions", "count"}, {"operator.ms", "ms"}, {"decisions_per_doc", "count"},
	{"service.submit_ms", "ms"}, {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
	{"service.notify_ms", "ms"}, {"service.cache_hit_ratio", "ratio"}, {"service.retries", "count"},
	{"store.append_ms", "ms"}, {"store.appends_per_job", "count"}, {"store.bytes_per_job", "bytes"},
	{"store.snapshot_ms", "ms"}, {"store.snapshots", "count"}, {"store.snapshot_bytes", "bytes"},
	{"store.replay_s", "s"},
	{"obs.events_dropped", "count"}, {"obs.spans_dropped", "count"},
	{"alloc_kb_per_doc", "KiB"}, {"gc.cycles_per_doc", "count"},
	{"latency_tail.percentile", "pct"}, {"latency_tail.samples", "count"},
	{"truth_docs_share", "ratio"},
	{"failed.infeasible", "count"}, {"failed.iteration_limit", "count"},
	{"failed.deadline", "count"}, {"failed.other", "count"},
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run found: its counts, metrics, the checks that
// failed, and the human-readable lines printed before the JSON line.
type result struct {
	attempted, failed int
	metrics           []metric
	problems          []string
	notes             []string
	table             string
	digest            string
}

// maxProblems bounds the problems a run lists; the rest are counted.
const maxProblems = 20

// problem records a failed output check: the run is reported incorrect.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) == maxProblems {
		r.problems = append(r.problems, "further problems omitted")
	}
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// repairedShare is the share of attempted documents that came back with a
// repaired database (1 - failed_share).
func (r *result) repairedShare() ratio { return ratio{r.attempted - r.failed, r.attempted} }

// addLayers reports every per-layer metric in perLayerMetrics order, 0
// for those the workload does not produce. A key that is not a declared
// per-layer metric is a programming error.
func (r *result) addLayers(vals map[string]float64) {
	known := map[string]bool{}
	for _, m := range perLayerMetrics {
		known[m.name] = true
		r.add(m.name, vals[m.name], m.unit)
	}
	for k := range vals {
		if !known[k] {
			panic("perfbench: undeclared per-layer metric " + k)
		}
	}
}

// checkRepaired re-checks a repaired database against the constraints
// independently of the pipeline's own verification.
func (r *result) checkRepaired(doc int, md *metadata.Metadata, res *dart.Result) {
	viols, err := aggrcons.Check(res.Repaired, md.Constraints(), 1e-6)
	if err != nil {
		r.problem("doc %d: re-checking the repaired database: %v", doc, err)
	} else if len(viols) > 0 {
		r.problem("doc %d: repaired database violates %d ground constraints", doc, len(viols))
	}
}

// layerShare is one row of the "where the time goes" table.
type layerShare struct {
	name string
	busy time.Duration
}

// whereTimeGoes renders each part's time per item and share of the traced
// time, the unaccounted remainder, then parts that run inside the others
// (shown, not summed), and the tracing overhead.
func whereTimeGoes(items string, parts, inside []layerShare, total time.Duration, n int, overhead string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "where the time goes (traced, %d %s, %.3f ms each):\n", n, items, per(ms(total), n))
	fmt.Fprintf(&b, "  %-16s %10s %7s\n", "layer", "ms each", "share")
	row := func(name string, d time.Duration, suffix string) {
		fmt.Fprintf(&b, "  %-16s %10.4f %6.1f%%%s\n", name, per(ms(d), n), 100*float64(d)/float64(total), suffix)
	}
	rest := total
	for _, p := range parts {
		rest -= p.busy
		row(p.name, p.busy, "")
	}
	row("unaccounted", rest, "")
	for _, p := range inside {
		row(p.name, p.busy, "  (inside the rows above)")
	}
	fmt.Fprintf(&b, "  tracing overhead: %s\n", overhead)
	return b.String()
}

// overheadLine compares untraced with traced throughput.
func overheadLine(untraced, traced float64) string {
	return fmt.Sprintf("untraced %.2f/s, traced %.2f/s (%+.1f%% time)", untraced, traced, 100*(untraced/traced-1))
}

// checkDigest compares the run's repair digest with the one an earlier run
// of the same workload and seed recorded in this checkout (traced or not),
// and records it when there is none.
func checkDigest(r *result, workload string, seed int64) error {
	dir := filepath.Join(workDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d", workload, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != r.digest {
			r.problem("repair digest %s differs from an earlier run's %s", r.digest, got)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(r.digest+"\n"), 0o644)
	default:
		return err
	}
}

// jsonMetric is one metric in the output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name: small-docs, wide-budget, review-loop or dartd-history")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (small-docs, wide-budget, review-loop, dartd-history), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	r, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		err = checkDigest(r, *workload, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("workload %s seed %d trace %d: %d attempted, %d failed, digest %s\n",
		*workload, *seed, *trace, r.attempted, r.failed, r.digest)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Print(r.table)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayerMetrics
	}
	if len(r.metrics) != len(want) {
		r.problem("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for i, m := range r.metrics {
		if i < len(want) && (m.name != want[i].name || m.unit != want[i].unit) {
			r.problem("metric %d is %s (%s), want %s (%s)", i, m.name, m.unit, want[i].name, want[i].unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.problem("metric %s is %v", m.name, m.value)
			m.value = 0
		}
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out.Correct = len(r.problems) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

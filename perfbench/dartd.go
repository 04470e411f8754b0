package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dart"
	"dart/internal/obs"
	"dart/internal/service"
	"dart/internal/store"
)

const (
	// historyJobs is the number of finished jobs the store holds when a
	// dartd-history run starts.
	historyJobs = 300
	// historySeed fixes the history's documents, independent of --seed.
	historySeed = 20060326
	// dartdPool is the number of distinct documents a run submits before
	// cycling; it exceeds the result cache, so cycling alone never hits.
	dartdPool = 1500
	// roundJobs is the number of submissions per round. The service
	// snapshots about once per 50 jobs, so a round of 200 puts its tail
	// (p95, the 11th-slowest job) clear of the snapshot stalls instead of
	// on their edge.
	roundJobs = 200
)

// dartdConfig is dartd's default flag set on top of the given store:
// GOMAXPROCS workers, result cache 256, trace buffer 256, event ring
// 1024, a snapshot every 256 appends. Request logging is left off, and the
// store mode is chosen by the caller.
func dartdConfig(st store.JobStore) service.Config {
	return service.Config{
		QueueCapacity:      1024,
		JobTimeout:         60 * time.Second,
		MaxAttempts:        3,
		ResultCacheSize:    256,
		Tracer:             obs.New(obs.Config{Capacity: 256}),
		Bus:                obs.NewBus(obs.BusConfig{Ring: 1024}),
		Store:              st,
		StoreSnapshotEvery: 256,
	}
}

// dartd is one in-process service behind a loopback HTTP server.
type dartd struct {
	wal   *store.WAL
	timed *timedStore // nil when untraced
	srv   *service.Server
	http  *httptest.Server
}

// bootDartd opens the WAL, replays it through service.New, starts the
// pool and the HTTP server: the service's set-up. The WAL runs in dartd's
// async mode (-store async): with an fsync per append, the shared disk's
// latency set the run-to-run spread of every dartd metric.
func bootDartd(dir string, traced bool) (*dartd, error) {
	wal, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return nil, err
	}
	d := &dartd{wal: wal}
	var st store.JobStore = wal
	if traced {
		d.timed = &timedStore{JobStore: wal}
		st = d.timed
	}
	d.srv, err = service.New(dartdConfig(st))
	if err != nil {
		wal.Close()
		return nil, err
	}
	d.srv.Start()
	d.http = httptest.NewServer(d.srv.Handler())
	return d, nil
}

// stop drains the pool, closes the HTTP server and the store.
func (d *dartd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.http.Close()
	if cerr := d.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// ensureHistory builds the store of historyJobs finished jobs once per
// checkout (untimed, through the service itself) and returns its
// directory. Runs copy it, so every run starts from the same bytes.
func ensureHistory() (string, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("dartd-history-%d", historyJobs))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	// Async appends write the same frames; they only skip the fsyncs.
	wal, err := store.OpenWAL(tmp, store.WALOptions{})
	if err != nil {
		return "", err
	}
	cfg := dartdConfig(wal)
	cfg.QueueCapacity = historyJobs + 1
	srv, err := service.New(cfg)
	if err != nil {
		wal.Close()
		return "", err
	}
	srv.Start()
	for _, d := range smallDocs(historySeed, historyJobs) {
		if _, err := srv.Queue().Submit(service.JobSpec{Document: d.src, Scenario: d.scenario}); err != nil {
			wal.Close()
			return "", err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx) // drains: every submitted job finishes first
	if err == nil {
		err = wal.Sync()
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("building dartd history: %w", err)
	}
	return dir, os.Rename(tmp, dir)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// encodeResult renders a wire result the way dartd does (HTML left
// unescaped), so two results compare byte for byte.
func encodeResult(r *service.ResultJSON) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(r)
	return b.Bytes(), err
}

// docFor returns which of a round's fresh documents submission k sends:
// one submission in ten resubmits the document of submission k-7
// (finished by then, so it is in the result cache); the others take the
// next fresh document.
func docFor(k int) int {
	if k%10 == 9 {
		return docFor(k - 7)
	}
	return k - k/10
}

// submission is one client request as the client saw it.
type submission struct {
	k, doc       int
	id           string
	err          error
	start, acked time.Time // POST sent, 202 received
	done         time.Time // terminal state observed on the event stream
}

// submitAndWait posts one job and follows its event stream until the
// server closes it at the terminal state.
func submitAndWait(c *http.Client, base string, d doc, s *submission) {
	body, err := json.Marshal(service.JobSpec{Document: d.src, Scenario: d.scenario})
	if err != nil {
		s.err = err
		return
	}
	s.start = time.Now()
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	var view service.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	s.acked = time.Now()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	if err != nil {
		s.err = err
		return
	}
	s.id = view.ID
	resp, err = c.Get(base + "/v1/jobs/" + view.ID + "/events?kind=job")
	if err != nil {
		s.err = err
		return
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /v1/jobs/%s/events: %s", view.ID, resp.Status)
	}
	resp.Body.Close()
	s.done = time.Now()
	s.err = err
}

// getJob fetches a job's view, waiting until it is terminal.
func getJob(c *http.Client, base, id string) (service.JobView, error) {
	for tries := 0; ; tries++ {
		var v service.JobView
		resp, err := c.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return v, err
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || v.State.Terminal() || tries == 1000 {
			return v, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrape sums every sample of each named metric on /metrics.
func scrape(c *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			_, rest, ok = strings.Cut(line, "} ")
		}
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// roundStats accumulates what the rounds of a dartd-history run measured.
type roundStats struct {
	setups, rates, p50s []float64
	tails               []tail
	peaks               []float64 // per round, MiB
	jobs                int
	submit, enqueue     time.Duration
	wait, run, notify   time.Duration
	latSum              time.Duration
	store               storeTimes // serving only: replay excluded
	replay              []float64
	appendBytes         uint64
	snapshotBytes       int64
	allocs, gcs         uint64
	counters            map[string]float64
	classes             map[string]int
}

// scraped are the /metrics counters a round adds up.
var scraped = []string{"dartd_result_cache_hits_total", "dartd_result_cache_misses_total",
	"dartd_job_retries_total", "dart_events_dropped_total", "dart_trace_spans_dropped_total"}

// round boots a dartd on a fresh copy of the history, serves roundJobs
// submissions from one closed-loop client, checks every job's result
// against the library's, and shuts the service down. Round n submits the
// pool's documents from n*(roundJobs-roundJobs/10) on.
func round(n int, hist, dir string, pool []doc, expected [][]byte, traced bool, r *result, rs *roundStats) (err error) {
	if err := copyDir(hist, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	d, err := bootDartd(dir, traced)
	if err != nil {
		return err
	}
	rs.setups = append(rs.setups, time.Since(t).Seconds())
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	if rec := d.srv.Recovery(); rec == nil || rec.Completed != historyJobs {
		r.problem("store replay recovered %+v, want %d completed jobs", rec, historyJobs)
	}
	var boot storeTimes
	if d.timed != nil {
		boot = d.timed.times()
		rs.replay = append(rs.replay, boot.replayDur.Seconds())
	}
	base, client := d.http.URL, d.http.Client()
	first := n * (roundJobs - roundJobs/10)
	stats0 := d.wal.Stats()
	mem := newMemSampler()
	_, alloc0, gc0 := mem.read()
	subs := make([]submission, roundJobs)
	var peak uint64
	for k := range subs {
		s := &subs[k]
		s.k, s.doc = k, (first+docFor(k))%len(pool)
		submitAndWait(client, base, pool[s.doc], s)
		live, _, _ := mem.read()
		peak = max(peak, live)
	}
	rs.peaks = append(rs.peaks, mb(peak))
	_, alloc1, gc1 := mem.read()
	rs.allocs += alloc1 - alloc0
	rs.gcs += gc1 - gc0
	stats1 := d.wal.Stats()
	rs.appendBytes += stats1.AppendBytes - stats0.AppendBytes
	rs.snapshotBytes = stats1.SnapshotBytes
	if d.timed != nil {
		st := d.timed.times()
		rs.store.appends += st.appends - boot.appends
		rs.store.appendDur += st.appendDur - boot.appendDur
		rs.store.snapshots += st.snapshots - boot.snapshots
		rs.store.snapDur += st.snapDur - boot.snapDur
	}
	counters, err := scrape(client, base, scraped...)
	if err != nil {
		return err
	}
	for k, v := range counters {
		rs.counters[k] += v
	}

	// Check every job against the library result of its document.
	var lat []float64
	for _, s := range subs {
		r.attempted++
		if s.err != nil {
			r.failed++
			rs.classes["other"]++
			r.problem("round %d submission %d: %v", n, s.k, s.err)
			continue
		}
		v, err := getJob(client, base, s.id)
		if err != nil {
			return err
		}
		if v.State != service.StateSucceeded {
			r.failed++
			rs.classes[errClass(errors.New(v.Error))]++
			if expected[s.doc] != nil {
				r.problem("job %s (doc %d) ended %s: %s; the library repaired it", s.id, s.doc, v.State, v.Error)
			}
		} else if got, err := encodeResult(v.Result); err != nil || !bytes.Equal(got, expected[s.doc]) {
			r.problem("job %s (doc %d): result differs from the library result", s.id, s.doc)
		}
		rs.jobs++
		lat = append(lat, ms(s.done.Sub(s.start)))
		rs.latSum += s.done.Sub(s.start)
		rs.submit += s.acked.Sub(s.start)
		if v.StartedAt != nil && v.FinishedAt != nil {
			rs.enqueue += v.SubmittedAt.Sub(s.start)
			rs.wait += v.StartedAt.Sub(v.SubmittedAt)
			rs.run += v.FinishedAt.Sub(*v.StartedAt)
			rs.notify += s.done.Sub(*v.FinishedAt)
		}
	}
	rs.tails = append(rs.tails, tailLatency(lat))
	rs.p50s = append(rs.p50s, median(lat))
	rs.rates = append(rs.rates, windowRates(subs)...)
	return nil
}

// runDartd is the dartd-history workload: one closed-loop HTTP client
// against an in-process dartd whose store starts with historyJobs
// finished jobs. The run is a sequence of rounds, each booting from a
// fresh copy of the history, so every round measures the same state and
// the run reports medians over rounds. One client, not one per core: on a
// 2-vCPU machine, paired runs with two clients spread 20-35% in latency
// from run to run, against under 10% with one.
func runDartd(seed int64, seconds time.Duration, traced bool) (*result, error) {
	hist, err := ensureHistory()
	if err != nil {
		return nil, err
	}
	r := &result{}

	// Expected results: the library pipeline, exactly as dartd's runner
	// configures it, on every pool document.
	pool := smallDocs(seed, dartdPool)
	expected := make([][]byte, len(pool))
	var dig digest
	fixed, wrong := 0, 0
	for i, d := range pool {
		spec := service.JobSpec{Document: d.src, Scenario: d.scenario}
		md, err := service.ResolveMetadata(spec)
		if err != nil {
			return nil, err
		}
		res, err := (&dart.Pipeline{Metadata: md, Solver: dart.NewMILPSolver()}).Process(d.src)
		o := outcomeOf(res, err)
		dig.add(i, o.line, o.card)
		if err != nil {
			continue // the job must fail too
		}
		r.checkRepaired(i, md, res)
		f, w := truthCells(res.Acquisition.Database, res.Repaired, d.truth)
		fixed += f
		wrong += w
		if expected[i], err = encodeResult(service.EncodeResult(res)); err != nil {
			return nil, err
		}
	}
	r.digest = dig.sum()

	runDir := filepath.Join(workDir, fmt.Sprintf("dartd-run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	rs := &roundStats{counters: map[string]float64{}, classes: map[string]int{}}
	runtime.GC()
	deadline := time.Now().Add(seconds)
	var last time.Duration
	for n := 0; n == 0 || time.Until(deadline) >= last; n++ {
		t := time.Now()
		if err := round(n, hist, filepath.Join(runDir, strconv.Itoa(n)), pool, expected, traced, r, rs); err != nil {
			return nil, err
		}
		last = time.Since(t)
	}
	rounds := len(rs.p50s)
	// The tail is taken per round (p95 of 200 jobs) and reported as the
	// median over rounds. Snapshot stalls hit about one job in fifty and
	// their length follows the disk, so they mostly fall beyond it; their
	// cost shows in store.snapshot_ms and docs_per_s.
	tailVals := make([]float64, rounds)
	for i, t := range rs.tails {
		tailVals[i] = t.Value
	}
	tl := rs.tails[0]
	tl.Value = median(tailVals)
	if !traced {
		rate := median(rs.rates)
		r.add("docs_per_s", rate, "1/s")
		r.add("latency_p50_ms", median(rs.p50s), "ms")
		r.add("latency_tail_ms", tl.Value, "ms")
		r.add("repaired_share", r.repairedShare().Value(), "ratio")
		r.add("truth_recovered_share", truthShare(fixed, wrong).Value(), "ratio")
		r.add("setup_s", median(rs.setups), "s")
		r.add("peak_heap_mb", median(rs.peaks), "MiB")
		r.notef("%d rounds of %d jobs; docs/s is the median over %d windows of %d completions; p50 the median over rounds: %.4g ms", rounds, roundJobs, len(rs.rates), jobWindow, rs.p50s)
		r.notef("latency tail: median over rounds of each round's p%.4g over %d samples: %.4g ms", tl.Percentile, tl.Samples, tailVals)
		r.notef("truth recovered: measure values %s", truthShare(fixed, wrong))
		return r, writeRate(seed, rate)
	}

	jobs, st := rs.jobs, rs.store
	cache := cacheHitRatio(rs.counters)
	r.addLayers(map[string]float64{
		"service.submit_ms":       per(ms(rs.submit), jobs),
		"service.queue_wait_ms":   per(ms(rs.wait), jobs),
		"service.run_ms":          per(ms(rs.run), jobs),
		"service.notify_ms":       per(ms(rs.notify), jobs),
		"service.cache_hit_ratio": cache.Value(),
		"service.retries":         rs.counters["dartd_job_retries_total"],
		"store.append_ms":         per(ms(st.appendDur), st.appends),
		"store.appends_per_job":   per(float64(st.appends), jobs),
		"store.bytes_per_job":     per(float64(rs.appendBytes), jobs),
		"store.snapshot_ms":       per(ms(st.snapDur), st.snapshots),
		"store.snapshots":         per(float64(st.snapshots), rounds),
		"store.snapshot_bytes":    float64(rs.snapshotBytes),
		"store.replay_s":          median(rs.replay),
		"obs.events_dropped":      rs.counters["dart_events_dropped_total"],
		"obs.spans_dropped":       rs.counters["dart_trace_spans_dropped_total"],
		"alloc_kb_per_doc":        per(float64(rs.allocs)/1024, jobs),
		"gc.cycles_per_doc":       per(float64(rs.gcs), jobs),
		"latency_tail.percentile": tl.Percentile,
		"latency_tail.samples":    float64(tl.Samples),
		"failed.infeasible":       float64(rs.classes["infeasible"]),
		"failed.iteration_limit":  float64(rs.classes["iteration_limit"]),
		"failed.deadline":         float64(rs.classes["deadline"]),
		"failed.other":            float64(rs.classes["other"]),
	})
	r.notef("%d rounds of %d jobs", rounds, roundJobs)
	r.notef("result cache: hits %s of lookups", cache)
	r.notef("store: %d appends, %d snapshots while serving; replay %.4fs at boot (median)", st.appends, st.snapshots, median(rs.replay))
	overhead := "unknown (no untraced run with this seed in this checkout)"
	if u, ok := readRate(seed); ok {
		overhead = overheadLine(u, median(rs.rates)) + " (untraced from an earlier run, same seed)"
	}
	r.table = whereTimeGoes("jobs", []layerShare{
		{"enqueue", rs.enqueue}, {"queue", rs.wait}, {"run", rs.run}, {"notify", rs.notify},
	}, []layerShare{{"store.append", st.appendDur}, {"store.snapshot", st.snapDur}}, rs.latSum, jobs, overhead)
	return r, nil
}

// cacheHitRatio is the share of result-cache lookups (one per job run)
// that hit, from the /metrics counters.
func cacheHitRatio(counters map[string]float64) ratio {
	hits := int(counters["dartd_result_cache_hits_total"])
	return ratio{hits, hits + int(counters["dartd_result_cache_misses_total"])}
}

// jobWindow is the number of consecutive job completions per throughput
// window; docs_per_s is the median window rate over the run.
const jobWindow = 50

// windowRates returns the completion rate of each run of jobWindow
// consecutive completions in a round (failed submissions excluded).
func windowRates(subs []submission) []float64 {
	var done []time.Time
	for _, s := range subs {
		if s.err == nil {
			done = append(done, s.done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates []float64
	for i := jobWindow; i < len(done); i += jobWindow {
		rates = append(rates, jobWindow/done[i].Sub(done[i-jobWindow]).Seconds())
	}
	return rates
}

// writeRate records an untraced dartd run's docs/s for the traced run's
// overhead line.
func writeRate(seed int64, rate float64) error {
	dir := filepath.Join(workDir, "rates")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("dartd-history-%d", seed)), []byte(strconv.FormatFloat(rate, 'g', -1, 64)), 0o644)
}

// readRate reads the rate writeRate recorded, if any.
func readRate(seed int64) (float64, bool) {
	b, err := os.ReadFile(filepath.Join(workDir, "rates", fmt.Sprintf("dartd-history-%d", seed)))
	if err != nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

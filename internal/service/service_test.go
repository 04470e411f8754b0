package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/docgen"
)

// runningExampleErrorHTML renders Fig. 1 with the paper's acquisition
// error (total cash receipts 2003 misread as 250; true value 220).
func runningExampleErrorHTML() string {
	doc := docgen.RunningExampleDocument()
	doc.Tables[0].Rows[3][1].Text = "250"
	return doc.HTML()
}

// newTestServer starts a service plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// postJob submits a spec and decodes the response envelope.
func postJob(t *testing.T, base string, spec JobSpec) (JobView, *http.Response) {
	t.Helper()
	raw, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp
}

// pollJob fetches one job until it reaches a terminal state.
func pollJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestSubmitPollLifecycle drives one running-example job through the HTTP
// API and oracle-checks the repair (250 -> 220).
func TestSubmitPollLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	v, resp := postJob(t, ts.URL, JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Errorf("Location = %q", loc)
	}
	got := pollJob(t, ts.URL, v.ID)
	if got.State != StateSucceeded {
		t.Fatalf("state = %s, error = %q", got.State, got.Error)
	}
	if got.Result == nil || got.Result.Repair == nil {
		t.Fatal("terminal job has no result")
	}
	if got.Result.Repair.Card != 1 {
		t.Fatalf("repair card = %d, want 1", got.Result.Repair.Card)
	}
	u := got.Result.Repair.Updates[0]
	if fmt.Sprint(u.Old.Value) != "250" || fmt.Sprint(u.New.Value) != "220" {
		t.Errorf("update = %+v, want 250 -> 220", u)
	}
	if len(got.Result.Acquisition.Violations) != 2 {
		t.Errorf("violations = %d, want 2", len(got.Result.Acquisition.Violations))
	}

	// The list endpoint carries the job without the result payload.
	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs  []JobView `json:"jobs"`
		Count int       `json:"count"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Jobs[0].ID != v.ID || list.Jobs[0].Result != nil {
		t.Errorf("list = %+v", list)
	}
}

// TestSubmitValidation exercises the 4xx paths.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", "{nope", http.StatusBadRequest},
		{"unknown field", `{"document": "x", "bogus": 1}`, http.StatusBadRequest},
		{"missing document", `{"scenario": "cashbudget"}`, http.StatusBadRequest},
		{"unknown scenario", `{"document": "x", "scenario": "nope"}`, http.StatusBadRequest},
		{"unknown solver", `{"document": "x", "solver": "nope"}`, http.StatusBadRequest},
		{"bad inline metadata", `{"document": "x", "metadata": "bogus"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var env map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env["error"] == "" {
				t.Errorf("error envelope missing: %v %v", env, err)
			}
		})
	}
}

// TestSubmitRejectsSolverWorkers: jobs no longer carry a branch-and-bound
// worker budget, so a spec that still sets solver_workers names an unknown
// field and is refused with a 400 instead of being silently ignored.
func TestSubmitRejectsSolverWorkers(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	body := `{"document": "x", "scenario": "cashbudget", "solver_workers": 4}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	var env map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env["error"], `unknown field "solver_workers"`) {
		t.Errorf("error = %q, want it to name solver_workers", env["error"])
	}
	if n := len(srv.Queue().CountByState()); n != 0 {
		t.Errorf("rejected spec created jobs: %v", srv.Queue().CountByState())
	}
}

// vetFailingMetadata parses fine but fails spec vetting: the constraint's
// WHERE clause touches the measure attribute, so it is not steady.
const vetFailingMetadata = `title vet reject fixture
domain D: 'a', 'b'

pattern P:
  cell K: domain D
  cell V: Integer

relation R(K: S, Kind: S, V: Z)
measure R.V

map K from cell K
map V from cell V

classify Kind from K:
  'a' -> 'x'
  'b' -> 'y'

constraints:
  func f(p) := SELECT sum(V) FROM R WHERE V = p
  constraint C: R(_, _, v) ==> f(v) <= 10
end
`

// TestSubmitSpecVetRejection covers the 422 admission path: a parseable but
// vet-failing spec is rejected with machine-readable diagnostics and counts
// toward dart_spec_rejections_total.
func TestSubmitSpecVetRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	raw, _ := json.Marshal(JobSpec{Document: "x", Metadata: vetFailingMetadata})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var env struct {
		Error       string `json:"error"`
		Diagnostics []struct {
			Class      string   `json:"class"`
			Constraint string   `json:"constraint"`
			Message    string   `json:"message"`
			Refs       []string `json:"refs"`
		} `json:"diagnostics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == "" || len(env.Diagnostics) == 0 {
		t.Fatalf("rejection envelope incomplete: %+v", env)
	}
	d := env.Diagnostics[0]
	if d.Class != "non-steady" || d.Constraint != "C" {
		t.Errorf("diagnostic = %+v, want class non-steady for constraint C", d)
	}
	if len(d.Refs) == 0 || d.Refs[0] != "R.V" {
		t.Errorf("diagnostic refs = %v, want [R.V]", d.Refs)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(metrics.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dart_spec_rejections_total 1") {
		t.Errorf("/metrics does not count the rejection:\n%s", buf.String())
	}
}

// TestJobNotFoundAnd405 covers the remaining error routes.
func TestJobNotFoundAnd405(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get status = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("delete status = %d, want 405", resp2.StatusCode)
	}
}

// TestHealthzAndDrain503: a draining server answers 503 on healthz and on
// new submissions while finishing the backlog.
func TestHealthzAndDrain503(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{Workers: 1, Runner: func(ctx context.Context, spec JobSpec) (*ResultJSON, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return &ResultJSON{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d before drain", resp.StatusCode)
	}

	v, sub := postJob(t, ts.URL, JobSpec{Document: "x"})
	if sub.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", sub.StatusCode)
	}
	<-started // the worker holds the job

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	// Wait for the drain flag to flip.
	for i := 0; srv.Draining() == false && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp2.StatusCode)
	}
	if _, sub := postJob(t, ts.URL, JobSpec{Document: "y"}); sub.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", sub.StatusCode)
	}

	close(release) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain = %v", err)
	}
	if got, _ := srv.Queue().Get(v.ID); got.State != StateSucceeded {
		t.Errorf("in-flight job state = %s, want succeeded (drain must finish it)", got.State)
	}
}

// metricValue extracts one sample value from Prometheus text output.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			f, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestStressConcurrentJobs drives 100+ concurrent jobs across the three
// built-in scenarios through the HTTP API, oracle-checks every
// running-example repair, and cross-checks /metrics afterwards. Run under
// -race this doubles as the pool's data-race stress test.
func TestStressConcurrentJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cashDoc := runningExampleErrorHTML()
	catalogDoc := docgen.OrdersDocument(docgen.RandomOrders(rng, 4)).HTML()
	balanceDoc := docgen.BalanceSheetDocument(docgen.RandomBalanceSheet(rng, 2001, 1)).HTML()

	specs := []JobSpec{
		{Document: cashDoc, Scenario: "cashbudget"},
		{Document: catalogDoc, Scenario: "catalog"},
		{Document: balanceDoc, Scenario: "balancesheet"},
	}
	const n = 120
	_, ts := newTestServer(t, Config{Workers: 8, QueueCapacity: n})

	ids := make([]string, n)
	scenarios := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specs[i%len(specs)]
			raw, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				errs <- err
				return
			}
			ids[i] = v.ID
			scenarios[i] = spec.Scenario
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	succeeded := 0
	for i, id := range ids {
		v := pollJob(t, ts.URL, id)
		if v.State != StateSucceeded {
			t.Fatalf("job %s (%s): state=%s error=%q", id, scenarios[i], v.State, v.Error)
		}
		succeeded++
		switch scenarios[i] {
		case "cashbudget":
			// Oracle check: the one card-minimal repair is 250 -> 220.
			if v.Result.Repair.Card != 1 {
				t.Fatalf("job %s: repair card = %d, want 1", id, v.Result.Repair.Card)
			}
			u := v.Result.Repair.Updates[0]
			if fmt.Sprint(u.Old.Value) != "250" || fmt.Sprint(u.New.Value) != "220" {
				t.Errorf("job %s: update = %+v, want 250 -> 220", id, u)
			}
		default:
			// Clean documents must come back consistent with empty repairs.
			if !v.Result.Acquisition.Consistent || v.Result.Repair.Card != 0 {
				t.Errorf("job %s (%s): consistent=%v card=%d", id, scenarios[i],
					v.Result.Acquisition.Consistent, v.Result.Repair.Card)
			}
		}
	}

	// The metrics must agree with what we observed.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	if got := metricValue(t, text, "dartd_jobs_submitted_total"); got != n {
		t.Errorf("submitted = %v, want %d", got, n)
	}
	if got := metricValue(t, text, `dartd_jobs_total{state="succeeded"}`); got != float64(succeeded) {
		t.Errorf("succeeded = %v, want %d", got, succeeded)
	}
	if got := metricValue(t, text, "dartd_job_seconds_count"); got != n {
		t.Errorf("job_seconds_count = %v, want %d", got, n)
	}
	// 40 of the 120 jobs were inconsistent cashbudget documents with 2
	// violations and a card-1 repair each.
	if got := metricValue(t, text, "dartd_violations_found_total"); got != 80 {
		t.Errorf("violations = %v, want 80", got)
	}
	if got := metricValue(t, text, "dartd_repair_updates_total"); got != 40 {
		t.Errorf("repair updates = %v, want 40", got)
	}
	// The solver histogram saw exactly the inconsistent jobs.
	if got := metricValue(t, text, `dartd_stage_seconds_count{stage="solver"}`); got != 40 {
		t.Errorf("solver observations = %v, want 40", got)
	}
	if got := metricValue(t, text, `dartd_stage_seconds_count{stage="wrapper"}`); got != n {
		t.Errorf("wrapper observations = %v, want %d", got, n)
	}
	if got := metricValue(t, text, "dartd_queue_depth"); got != 0 {
		t.Errorf("queue depth = %v, want 0", got)
	}
}

// TestPipelineRunnerDeadline: an expired context aborts the production
// runner with a deadline error before and during the solve.
func TestPipelineRunnerDeadline(t *testing.T) {
	run := PipelineRunner(nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := run(ctx, JobSpec{Document: runningExampleErrorHTML(), Scenario: "cashbudget"})
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func startAPI(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newTestService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJob(t *testing.T, base string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestHTTPSubmitPollResult walks the documented client flow: POST
// /jobs → 202 + Location, poll GET /jobs/{id} to terminal, fetch
// /jobs/{id}/result and check the digest matches the status.
func TestHTTPSubmitPollResult(t *testing.T) {
	_, srv := startAPI(t, Config{})
	resp, payload := postJob(t, srv.URL, Request{
		Tenant: "acme",
		Spec:   Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 300, Seed: 5},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, payload)
	}
	var acked JobStatus
	if err := json.Unmarshal(payload, &acked); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+acked.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, acked.ID)
	}

	var final JobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, srv.URL+"/jobs/"+acked.ID, &final)
		if terminal(final.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", final.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s (%s)", final.State, final.Err)
	}

	var result struct {
		ID      string  `json:"id"`
		Records int     `json:"records"`
		Digest  string  `json:"digest"`
		Rows    [][]any `json:"rows"`
	}
	if resp := getJSON(t, srv.URL+"/jobs/"+acked.ID+"/result", &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("result returned %d", resp.StatusCode)
	}
	if result.Digest != final.Digest || len(result.Rows) != final.Records {
		t.Fatalf("result (%d rows, %s) disagrees with status (%d, %s)",
			len(result.Rows), result.Digest, final.Records, final.Digest)
	}

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, srv.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != acked.ID {
		t.Fatalf("job list = %+v", list.Jobs)
	}
}

func TestHTTPShedReturns429WithRetryAfter(t *testing.T) {
	s, srv := startAPI(t, Config{MaxActiveJobs: 1, QueueDepth: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	req := Request{Tenant: "acme", Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 100}}
	resp, payload := postJob(t, srv.URL, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, payload)
	}
	var acked JobStatus
	json.Unmarshal(payload, &acked)
	waitState(t, s, acked.ID, StateRunning)
	if resp, _ := postJob(t, srv.URL, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %d", resp.StatusCode)
	}

	resp, payload = postJob(t, srv.URL, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, payload)
	}
	// RFC 9110: Retry-After carries whole seconds. A sub-second shed
	// hint must clamp up to 1, never render as "0" (which clients read
	// as "retry immediately" — the opposite of shedding).
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 {
		t.Errorf("Retry-After = %d, want ≥ 1", secs)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := startAPI(t, Config{})
	cases := []string{
		`{`,                      // broken JSON
		`{"unknown_field": 1}`,   // unknown field
		`{"spec":{"kind":"no"}}`, // unknown kind
		`{"spec":{"kind":"sql","query":"SELEC"}}`, // parse error
		// No submission chooses a shard fan-out: "shards" is an unknown field.
		`{"spec":{"kind":"workload","workload":"wordcount","n":100},"shards":4}`,
	}
	for i, body := range cases {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: %d, want 400", i, resp.StatusCode)
		}
	}
	if resp := getJSON(t, srv.URL+"/jobs/j-404", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/jobs/j-404/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", resp.StatusCode)
	}
}

// TestHTTPRejectsFailoverOptOut: failover is no option a job can turn
// off, and the decoder disallows unknown fields, so a submission that
// still asks for no_failover is a 400 naming the field, not a job that
// silently fails over anyway.
func TestHTTPRejectsFailoverOptOut(t *testing.T) {
	s, srv := startAPI(t, Config{})
	body := `{"tenant":"acme","spec":{"kind":"workload","workload":"wordcount","n":100},"no_failover":true}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "no_failover") {
		t.Errorf("no_failover submission: %d %q, want 400 naming the field", resp.StatusCode, e.Error)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("the rejected submission left %d job(s)", len(jobs))
	}
}

// TestHTTPOversizedBodyIs413: POST /jobs reads at most 1 MiB; a larger
// body is refused as too large, not buffered and then found malformed,
// and a workload sized past the caps is a plain 400.
func TestHTTPOversizedBodyIs413(t *testing.T) {
	_, srv := startAPI(t, Config{})
	post := func(body string) (int, string) {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("error body: %v", err)
		}
		return resp.StatusCode, e.Error
	}
	big := `{"spec":{"kind":"sql","query":"SELECT word FROM words WHERE word = '` + strings.Repeat("x", 2<<20) + `'"}}`
	if code, msg := post(big); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "too large") {
		t.Errorf("2 MiB body: %d %q, want 413", code, msg)
	}
	if code, msg := post(`{"spec":{"kind":"workload","workload":"sensor","n":4611686018427387904}}`); code != http.StatusBadRequest || !strings.Contains(msg, "too large") {
		t.Errorf("oversized workload: %d %q, want 400", code, msg)
	}
}

// TestTenantNamesBoundedAtTheDoor: a tenant's name labels its service_*
// series and its record lives as long as the service, so POST /jobs
// refuses with a 400 a name past 64 bytes, a name with a byte outside
// [A-Za-z0-9._-] and a new tenant past the 1 024th — shed submissions
// name tenants too — and /metrics does not grow with them.
func TestTenantNamesBoundedAtTheDoor(t *testing.T) {
	s, srv := startAPI(t, Config{MaxActiveJobs: 1, QueueDepth: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	req := func(tenant string) Request {
		return Request{Tenant: tenant, Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 100}}
	}
	// With the pool held the first job runs, the second queues and every
	// later one is shed, each for a tenant of its own.
	for i := 0; i < maxTenants; i++ {
		name := fmt.Sprintf("t-%d", i)
		switch i {
		case 0:
			name = strings.Repeat("x", 64)
		case 1:
			name = "Acme.corp_2-eu"
		}
		var shed *ShedError
		st, err := s.Submit(req(name))
		if err != nil && !errors.As(err, &shed) {
			t.Fatalf("tenant %q refused: %v", name, err)
		}
		if i == 0 {
			// Out of the queue before the next submission, or that one
			// would be shed and a later one queue in its place.
			waitState(t, s, st.ID, StateRunning)
		}
	}
	// The series a tenant name labels; the rest of /metrics moves with
	// the job in flight.
	series := func() int {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(body, []byte(`tenant="`))
	}
	before := series()
	for _, c := range []struct{ what, tenant string }{
		{"a 65-byte name", strings.Repeat("x", 65)},
		{"a 1 MiB name", strings.Repeat("y", 1<<20-100)},
		{"a space", "acme corp"},
		{"a label quote", `acme"}`},
		{"a non-ASCII byte", "acmé"},
		{"the 1 025th tenant", "t-1024"},
	} {
		if resp, payload := postJob(t, srv.URL, req(c.tenant)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %.200s, want 400", c.what, resp.StatusCode, payload)
		}
	}
	if after := series(); after != before {
		t.Errorf("/metrics went from %d to %d tenant-labelled series on refused submissions", before, after)
	}
	if resp, payload := postJob(t, srv.URL, req("t-7")); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("a known tenant: %d %s, want 429 (shed, not refused)", resp.StatusCode, payload)
	}
	if n := len(s.Tenants()); n != maxTenants {
		t.Errorf("%d tenant records, want %d", n, maxTenants)
	}
}

func TestHTTPCancel(t *testing.T) {
	s, srv := startAPI(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	req := Request{Tenant: "acme", Spec: Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 100}}
	_, payload := postJob(t, srv.URL, req)
	var running JobStatus
	json.Unmarshal(payload, &running)
	waitState(t, s, running.ID, StateRunning)
	_, payload = postJob(t, srv.URL, req)
	var queued JobStatus
	json.Unmarshal(payload, &queued)

	httpReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != StateCancelled {
		t.Fatalf("cancel returned %d state %s", resp.StatusCode, st.State)
	}
	// A cancelled-but-running job turns terminal once the executor
	// unwinds; the result endpoint reports the conflict meanwhile.
	if resp := getJSON(t, srv.URL+"/jobs/"+running.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: %d, want 409", resp.StatusCode)
	}
}

func TestHTTPTenantsHealthzMetricsRuns(t *testing.T) {
	s, srv := startAPI(t, Config{})
	_, payload := postJob(t, srv.URL, Request{
		Tenant: "acme",
		Spec:   Spec{Kind: KindWorkload, Workload: WorkloadWordcount, N: 200, Seed: 2},
	})
	var acked JobStatus
	json.Unmarshal(payload, &acked)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, acked.ID); err != nil {
		t.Fatal(err)
	}

	var tenants struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	getJSON(t, srv.URL+"/tenants", &tenants)
	if len(tenants.Tenants) != 1 || tenants.Tenants[0].Name != "acme" || tenants.Tenants[0].Accepted != 1 {
		t.Fatalf("tenants = %+v", tenants.Tenants)
	}

	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// The telemetry endpoints ride on the same port.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"service_queue_depth", "service_jobs_accepted_total", "service_pool_slots"} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	var runs struct {
		Runs []json.RawMessage `json:"runs"`
	}
	getJSON(t, srv.URL+"/runs", &runs)
	if len(runs.Runs) == 0 {
		t.Fatal("/runs reports no runs after an executed job")
	}

	// Draining flips /healthz to 503.
	go s.Drain(context.Background())
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postJob(t, srv.URL, Request{Spec: Spec{Kind: KindWorkload, Workload: WorkloadFanout}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

func TestServeBindsAndServes(t *testing.T) {
	s := newTestService(t, Config{})
	srv, addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over Serve: %d", resp.StatusCode)
	}
}

// postQuery POSTs req to /jobs?query and decodes a 202 body; it reports
// how long the reply took.
func postQuery(t *testing.T, base, query string, req Request) (*http.Response, JobStatus, time.Duration) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 20 * time.Second}
	start := time.Now()
	resp, err := client.Post(base+"/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	took := time.Since(start)
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st, took
}

// TestHTTPSubmitAnswersFastJobTerminal: a job that ends within the hold
// is answered in one round trip, 202 with the status GET /jobs/{id}
// reports — records, digest, platforms and run id included.
func TestHTTPSubmitAnswersFastJobTerminal(t *testing.T) {
	_, srv := startAPI(t, Config{})
	resp, st, _ := postQuery(t, srv.URL, "?wait=30s", wordcountReq("acme", 300, 5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q, want /jobs/%s", loc, st.ID)
	}
	if st.State != StateSucceeded || st.Records == 0 || st.Digest == "" || len(st.Platforms) == 0 || st.RunID == 0 {
		t.Fatalf("POST body %+v, want a succeeded job with its result's fingerprint", st)
	}
	var got JobStatus
	getJSON(t, srv.URL+"/jobs/"+st.ID, &got)
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("GET /jobs/%s = %+v, POST answered %+v", st.ID, got, st)
	}
}

// TestHTTPSubmitWaitZeroAnswersQueued: ?wait=0 is the immediate ack.
func TestHTTPSubmitWaitZeroAnswersQueued(t *testing.T) {
	s, srv := startAPI(t, Config{})
	resp, st, _ := postQuery(t, srv.URL, "?wait=0", wordcountReq("acme", 300, 5))
	if resp.StatusCode != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("?wait=0: %d %s, want 202 queued", resp.StatusCode, st.State)
	}
	waitTerminal(t, s, st.ID)
}

// TestHTTPHoldEndsAtItsBound: a job that cannot run — the pool's one
// slot is taken — is answered as it stands once the hold ends, and not
// before: the default hold for the running job, ?wait=50ms for the
// queued one behind it.
func TestHTTPHoldEndsAtItsBound(t *testing.T) {
	s, srv := startAPI(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	for i, c := range []struct {
		query string
		bound time.Duration
	}{{"", submitWait}, {"?wait=50ms", 50 * time.Millisecond}} {
		resp, st, took := postQuery(t, srv.URL, c.query, wordcountReq("acme", 100, 1))
		if resp.StatusCode != http.StatusAccepted || terminal(st.State) {
			t.Fatalf("POST /jobs%s: %d %s, want 202 and a job not yet terminal", c.query, resp.StatusCode, st.State)
		}
		if took < c.bound {
			t.Errorf("POST /jobs%s answered %s after %v, before its %v hold ended", c.query, st.State, took, c.bound)
		}
		if resp.Header.Get("Location") != "/jobs/"+st.ID {
			t.Errorf("POST /jobs%s: Location %q", c.query, resp.Header.Get("Location"))
		}
		if i == 0 {
			// Running, so the next job queues behind it.
			waitState(t, s, st.ID, StateRunning)
		} else if st.State != StateQueued {
			t.Errorf("POST /jobs%s: %s, want queued", c.query, st.State)
		}
	}
}

// TestHTTPStatusLongPolls: GET /jobs/{id}?wait= answers when the job
// turns terminal; without the parameter it answers at once.
func TestHTTPStatusLongPolls(t *testing.T) {
	s, srv := startAPI(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, st, _ := postQuery(t, srv.URL, "?wait=0", wordcountReq("acme", 100, 1))
	waitState(t, s, st.ID, StateRunning)
	var now JobStatus
	getJSON(t, srv.URL+"/jobs/"+st.ID, &now)
	if now.State != StateRunning {
		t.Fatalf("GET without wait: %s, want running", now.State)
	}

	got := make(chan JobStatus, 1)
	go func() {
		var final JobStatus
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "?wait=30s")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&final)
			resp.Body.Close()
		}
		got <- final
	}()
	select {
	case early := <-got:
		t.Fatalf("long poll answered %q while the job could not run", early.State)
	case <-time.After(50 * time.Millisecond):
	}
	s.pool.Release()
	select {
	case final := <-got:
		if final.State != StateSucceeded || final.Digest == "" {
			t.Fatalf("long poll answered %+v, want the succeeded job", final)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("long poll did not answer when the job finished")
	}
}

// TestHTTPBadWaitAdmitsNothing: a negative or unparseable wait is a 400
// on POST, before admission, and on GET.
func TestHTTPBadWaitAdmitsNothing(t *testing.T) {
	s, srv := startAPI(t, Config{})
	for _, q := range []string{"?wait=-1s", "?wait=soon", "?wait=", "?wait=5"} {
		resp, _, _ := postQuery(t, srv.URL, q, wordcountReq("acme", 100, 1))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /jobs%s: %d, want 400", q, resp.StatusCode)
		}
		if resp := getJSON(t, srv.URL+"/jobs/j-1"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /jobs/j-1%s: %d, want 400", q, resp.StatusCode)
		}
	}
	if jobs, tenants := s.Jobs(), s.Tenants(); len(jobs) != 0 || len(tenants) != 0 {
		t.Errorf("bad waits admitted %d job(s) and %d tenant(s)", len(jobs), len(tenants))
	}
}

// TestHTTPHoldEndsWhenTheClientGoes: a client that disconnects during
// a long hold releases its handler at once, not at the bound.
func TestHTTPHoldEndsWhenTheClientGoes(t *testing.T) {
	s := newTestService(t, Config{MaxActiveJobs: 1, PoolSize: 1})
	returned := make(chan struct{}, 1)
	h := s.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	t.Cleanup(srv.Close)
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(wordcountReq("acme", 100, 1))
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/jobs?wait=1m", bytes.NewReader(body))
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.Jobs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the job was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled request got a reply")
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler still holds for a client that has gone")
	}
}

// TestHTTPHoldReportsAnEvictedJob: a hold watches the job it admitted,
// not its id, so a job that ends and leaves the bounded history before
// the reply is written is still answered with its own terminal state.
// Kill cancels the queued jobs in one step, the second evicting the
// first from a one-job history.
func TestHTTPHoldReportsAnEvictedJob(t *testing.T) {
	s, srv := startAPI(t, Config{MaxActiveJobs: 1, PoolSize: 1, JobHistory: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	running, err := s.Submit(wordcountReq("acme", 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)

	body, _ := json.Marshal(wordcountReq("acme", 100, 2))
	got := make(chan JobStatus, 1)
	go func() {
		var st JobStatus
		resp, err := http.Post(srv.URL+"/jobs?wait=30s", "application/json", bytes.NewReader(body))
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		got <- st
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.Jobs()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the held job was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	held := s.Jobs()[1]
	if _, err := s.Submit(wordcountReq("acme", 100, 3)); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	st := <-got
	if st.ID != held.ID || st.State != StateCancelled {
		t.Fatalf("held POST answered %+v, want %s cancelled", st, held.ID)
	}
	if _, err := s.Status(held.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s is still in the history (%v): the test evicts nothing", held.ID, err)
	}
}

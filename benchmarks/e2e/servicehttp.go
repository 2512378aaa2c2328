package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"rheem"
	"rheem/internal/apps/rheemql"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/service"
)

// serviceHTTP is service-http: an in-process service with rheem-serve's
// defaults behind a real loopback HTTP server, driven by two tenants,
// one closed-loop client each: POST /jobs → poll GET /jobs/{id} every
// 500 µs → GET /jobs/{id}/result → verify the rows. The mix is
// round-robin over the eight SQL templates plus the wordcount, sensor
// and fanout built-ins. Admission, queue, dispatch, the shared pool,
// digest and JSON encoding, calibrator fold and flight recorder carry
// it; it is the one workload whose jobs_per_s is multi-client
// throughput.
type serviceHTTP struct {
	seed uint64
	sc   scale

	tables     *tables
	sqlAnswers [][]*answer
	// builtin[k][s] is the answer of built-in k at spec seed s.
	builtin [len(builtins)][specSeeds]*answer

	svc *service.Service
	srv *httptest.Server
	cat *rheemql.Catalog // a catalog of our own, for the engine-level probes

	per []clientState
}

var builtins = [...]string{service.WorkloadWordcount, service.WorkloadSensor, service.WorkloadFanout}

const (
	// specSeeds is how many distinct input seeds the built-in specs
	// draw from: their references are computed once per seed in set-up.
	specSeeds    = 4
	pollInterval = 500 * time.Microsecond
	fanBranches  = 4
)

// clientState is one client's HTTP connection pool and tallies; each
// client goroutine touches only its own.
type clientState struct {
	http        *http.Client
	submissions int
	sheds       int
	polls       int
	jobs        int
	// platforms[spec] is the set of platform lists the spec's jobs ran
	// on; more than one means the plan flipped between runs.
	platforms map[string]map[string]bool
}

func (w *serviceHTTP) name() string { return "service-http" }

// clients is two tenants, or one on a single-CPU host: never more load
// generators than CPUs.
func (w *serviceHTTP) clients() int { return min(2, runtime.NumCPU()) }

func (w *serviceHTTP) setup(seed uint64, sc scale) error {
	w.seed, w.sc = seed, sc
	w.tables = loadTables(sc.httpCatalog)
	w.sqlAnswers = sqlAnswers(w.tables)
	for s := 0; s < specSeeds; s++ {
		w.builtin[0][s] = wordcountAnswer(sc.httpWorkN, w.specSeed(s))
		w.builtin[1][s] = sensorAnswer(sc.httpWorkN, w.specSeed(s))
		w.builtin[2][s] = fanoutAnswer(sc.httpFanN, w.specSeed(s))
	}
	var err error
	if w.cat, err = service.DefaultCatalog(sc.httpCatalog); err != nil {
		return err
	}
	w.svc, err = service.New(service.Config{CatalogScale: sc.httpCatalog, Calibration: true})
	if err != nil {
		return err
	}
	w.srv = httptest.NewServer(w.svc.Handler())
	w.per = make([]clientState, w.clients())
	for c := range w.per {
		w.per[c] = clientState{
			http:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
			platforms: map[string]map[string]bool{},
		}
	}
	return nil
}

func (w *serviceHTTP) engine() *rheem.Context { return w.svc.Engine() }

func (w *serviceHTTP) close() {
	for c := range w.per {
		w.per[c].http.CloseIdleConnections()
	}
	w.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.svc.Drain(ctx)
	w.svc.Close()
}

// specSeed is the s-th input seed of the built-in specs, kept below
// 2³¹ so the fanout workload's int64(seed) offset stays small.
func (w *serviceHTTP) specSeed(s int) uint64 {
	return uint64(pick(w.seed, 1<<20+s, 1<<31))
}

// spec is job i's spec, the name its plan variants are tallied under,
// and its reference answer.
func (w *serviceHTTP) spec(i int) (service.Spec, string, *answer) {
	k := i % (len(sqlTemplates) + len(builtins))
	if k < len(sqlTemplates) {
		lit := pick(w.seed, i, sqlLits)
		return service.Spec{Kind: service.KindSQL, Query: sqlTemplates[k].render(lit)},
			sqlTemplates[k].name, w.sqlAnswers[k][lit]
	}
	k -= len(sqlTemplates)
	s := pick(w.seed, i, specSeeds)
	spec := service.Spec{Kind: service.KindWorkload, Workload: builtins[k], N: w.sc.httpWorkN, Seed: w.specSeed(s)}
	if builtins[k] == service.WorkloadFanout {
		spec.N, spec.Branches = w.sc.httpFanN, fanBranches
	}
	return spec, builtins[k], w.builtin[k][s]
}

func (w *serviceHTTP) inputDigest() string {
	h := sha256.New()
	for i := 0; i < 256; i++ {
		spec, _, _ := w.spec(i)
		json.NewEncoder(h).Encode(spec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultBody is what the benchmark reads of GET /jobs/{id}/result.
type resultBody struct {
	Rows [][]any `json:"rows"`
}

func (w *serviceHTTP) job(i int) error { return w.httpJob(nil, i) }

// httpJob is one client-observed job over HTTP, with a span around each
// request when rec is set. Client c owns jobs c, c+clients, …, so i
// also names the client and its tenant.
func (w *serviceHTTP) httpJob(rec *recorder, i int) error {
	cs := &w.per[i%len(w.per)]
	cs.jobs++
	root := rec.begin(i, 0, rootSpan)
	defer rec.end(root)

	id := rec.begin(i, root, "spec.build")
	spec, key, want := w.spec(i)
	body, err := json.Marshal(service.Request{Tenant: fmt.Sprintf("tenant-%d", i%len(w.per)), Spec: spec})
	rec.end(id)
	if err != nil {
		return err
	}

	id = rec.begin(i, root, "http.submit")
	st, err := w.submit(cs, body)
	rec.end(id)
	if err != nil {
		return err
	}

	id = rec.begin(i, root, "http.poll")
	for st.State == service.StateQueued || st.State == service.StateRunning {
		time.Sleep(pollInterval)
		cs.polls++
		if err = w.getJSON(cs, "/jobs/"+st.ID, false, &st); err != nil {
			break
		}
	}
	rec.end(id)
	if err != nil {
		return err
	}
	if st.State != service.StateSucceeded {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Err)
	}
	// What the service says about its own phases, as spans beside the
	// client's: they overlap http.submit and http.poll, which self-time
	// accounting handles by taking the union.
	rec.add(i, root, "service.queue", st.Submitted, st.Started)
	rec.add(i, root, "service.run", st.Started, st.Ended)
	seen := cs.platforms[key]
	if seen == nil {
		seen = map[string]bool{}
		cs.platforms[key] = seen
	}
	seen[strings.Join(st.Platforms, "+")] = true

	id = rec.begin(i, root, "http.result")
	var res resultBody
	err = w.getJSON(cs, "/jobs/"+st.ID+"/result", true, &res)
	rec.end(id)
	if err != nil {
		return err
	}

	id = rec.begin(i, root, "verify")
	defer rec.end(id)
	got, err := rowsFromJSON(res.Rows, want.rows)
	if err != nil {
		return fmt.Errorf("service-http %s: %w", key, err)
	}
	if err := want.check(got); err != nil {
		return fmt.Errorf("service-http %s: %w", key, err)
	}
	return nil
}

// submit POSTs the job, retrying a shed submission after the pause the
// service asks for (capped: Retry-After is in whole seconds). The mix
// keeps one job in flight per tenant, so none should be shed.
func (w *serviceHTTP) submit(cs *clientState, body []byte) (service.JobStatus, error) {
	var st service.JobStatus
	for {
		cs.submissions++
		resp, err := cs.http.Post(w.srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return st, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			return st, err
		case http.StatusTooManyRequests:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cs.sheds++
			time.Sleep(10 * time.Millisecond)
		default:
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return st, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
	}
}

func (w *serviceHTTP) getJSON(cs *clientState, path string, useNumber bool, into any) error {
	resp, err := cs.http.Get(w.srv.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	if useNumber {
		dec.UseNumber()
	}
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	// Drain so the connection goes back to the pool.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// inProcess is the same job without HTTP — Submit, Wait, Result — the
// baseline service.http_overhead_ms is measured against. It reports how
// long the Submit call and the result digest took.
func (w *serviceHTTP) inProcess(i int) (submit, digest time.Duration, err error) {
	spec, _, _ := w.spec(i)
	t0 := time.Now()
	st, err := w.svc.Submit(service.Request{Tenant: fmt.Sprintf("tenant-%d", i%len(w.per)), Spec: spec})
	submit = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if st, err = w.svc.Wait(context.Background(), st.ID); err != nil {
		return 0, 0, err
	}
	if st.State != service.StateSucceeded {
		return 0, 0, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Err)
	}
	recs, _, err := w.svc.Result(st.ID)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	_, err = service.Digest(recs)
	digest = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	return submit, digest, w.verify(i, recs)
}

// resetTallies zeroes the clients' counters, so that what tallies
// reports covers the jobs run from here on and not the warm-up, which
// runs while the calibrator is still cold and may flip a plan.
func (w *serviceHTTP) resetTallies() {
	for c := range w.per {
		w.per[c] = clientState{http: w.per[c].http, platforms: map[string]map[string]bool{}}
	}
}

// tallies sums the clients' counters once the loop has stopped.
func (w *serviceHTTP) tallies() (polls, shed, variants float64) {
	var jobs, submissions, sheds, pollCount int
	sets := map[string]map[string]bool{}
	for c := range w.per {
		cs := &w.per[c]
		jobs += cs.jobs
		submissions += cs.submissions
		sheds += cs.sheds
		pollCount += cs.polls
		for key, seen := range cs.platforms {
			if sets[key] == nil {
				sets[key] = map[string]bool{}
			}
			for p := range seen {
				sets[key][p] = true
			}
		}
	}
	if jobs == 0 || len(sets) == 0 {
		return 0, 0, 0
	}
	n := 0
	for _, seen := range sets {
		n += len(seen)
	}
	return float64(pollCount) / float64(jobs), float64(sheds) / float64(submissions), float64(n) / float64(len(sets))
}

func (w *serviceHTTP) build(rec *recorder, i, parent int) (*plan.Plan, error) {
	spec, _, _ := w.spec(i)
	if spec.Kind == service.KindSQL {
		return compileSQL(w.cat, spec.Query, rec, i, parent)
	}
	id := rec.begin(i, parent, "plan.build")
	defer rec.end(id)
	return spec.BuildPlan(spec.Workload, w.cat)
}

func (w *serviceHTTP) optOptions(*physical.Plan) optimizer.Options { return optimizer.Options{} }

func (w *serviceHTTP) verify(i int, recs []data.Record) error {
	_, key, want := w.spec(i)
	got, err := rowsFromRecords(recs)
	if err != nil {
		return fmt.Errorf("service-http %s: %w", key, err)
	}
	if err := want.check(got); err != nil {
		return fmt.Errorf("service-http %s: %w", key, err)
	}
	return nil
}

func (w *serviceHTTP) sample() []data.Record { return w.tables.records() }
func (w *serviceHTTP) inputRows() int        { return len(w.tables.sensors) }

// The built-ins' references, in plain Go over the generated inputs.

func wordcountAnswer(n int, seed uint64) *answer {
	counts := map[string]int64{}
	for _, r := range datagen.Words(n, seed) {
		counts[r.Field(0).Str()]++
	}
	var rows []row
	for w, c := range counts {
		rows = append(rows, row{w, c})
	}
	sortRows(rows)
	return newAnswer(rows, true)
}

func sensorAnswer(n int, seed uint64) *answer {
	type acc struct {
		p, t, f float64
		n       int64
	}
	wells := map[int64]*acc{}
	for _, r := range datagen.Sensors(datagen.SensorConfig{N: n, Wells: 32, Seed: seed}) {
		a := wells[r.Field(0).Int()]
		if a == nil {
			a = &acc{}
			wells[r.Field(0).Int()] = a
		}
		a.p += kpa(r.Field(2).Float())
		a.t += r.Field(3).Float()
		a.f += r.Field(4).Float()
		a.n++
	}
	var rows []row
	for well, a := range wells {
		c := float64(a.n)
		rows = append(rows, row{well, []float64{a.p / c, a.t / c, a.f / c}})
	}
	sortRows(rows)
	return newAnswer(rows, true)
}

func fanoutAnswer(n int, seed uint64) *answer {
	var sum int64
	for leg := uint64(1); leg <= fanBranches; leg++ {
		for i := 0; i < n; i++ {
			x := uint64(int64(i)+int64(seed)) ^ leg
			for j := 0; j < 64; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sum += int64(x>>1) % 1_000_003
		}
	}
	return newAnswer([]row{{sum}}, true)
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes to POST /jobs?wait=0. The door must
// not panic, must answer 202, 400, 413, 429 or 503, and a 202 must carry
// the admitted job's id, queued. No admitted job runs: the one active
// place is taken by a job waiting on the pool's one slot, and each
// admitted job is cancelled while still queued, so the queue never fills.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{`,
		`{"unknown_field": 1}`,
		`{"spec":{"kind":"no"}}`,
		`{"spec":{"kind":"sql","query":"SELEC"}}`,
		`{"tenant":"acme","spec":{"kind":"workload","workload":"wordcount","n":100},"no_failover":true}`,
		`{"spec":{"kind":"workload","workload":"sensor","n":4611686018427387904}}`,
		`{"tenant":"acme","spec":{"kind":"workload","workload":"wordcount","n":300,"seed":5}}`,
		`{"tenant":"acme","spec":{"kind":"workload","workload":"fanout","n":200,"branches":4}}`,
		`{"tenant":"Acme.corp_2-eu","spec":{"kind":"sql","query":"SELECT word FROM words WHERE word = 'x'"}}`,
		`{"tenant":"acme corp","spec":{"kind":"workload","workload":"wordcount","n":100}}`,
	} {
		f.Add([]byte(body))
	}
	s := newTestService(f, Config{MaxActiveJobs: 1, PoolSize: 1})
	if err := s.pool.Acquire(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.pool.Release)
	blocker, err := s.Submit(wordcountReq("fuzz-blocker", 100, 1))
	if err != nil {
		f.Fatal(err)
	}
	waitState(f, s, blocker.ID, StateRunning)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs?wait=0", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("POST /jobs %q: %d %s", body, rec.Code, rec.Body.Bytes())
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body.Bytes(), err)
		}
		if st.ID == "" || st.State != StateQueued {
			t.Fatalf("POST /jobs %q: 202 with %+v, want an id, queued", body, st)
		}
		if _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
	})
}

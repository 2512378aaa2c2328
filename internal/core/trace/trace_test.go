package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rheem/internal/core/engine"
)

// fakeClock advances a deterministic amount on every read.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1000, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestSpanLifecycleAndSnapshot(t *testing.T) {
	var kinds []EventKind
	tr := New(func(e Event) { kinds = append(kinds, e.Kind) })
	tr.SetClock(fakeClock(time.Millisecond))

	ready := tr.Now()
	sp := tr.Begin(&Span{Kind: KindAtom, AtomID: 7, Platform: "java"}, ready)
	if sp.ID != 1 {
		t.Errorf("span ID = %d", sp.ID)
	}
	if sp.QueueWait != time.Millisecond {
		t.Errorf("queue wait = %v, want 1ms from the fake clock", sp.QueueWait)
	}
	sp.Attempts = append(sp.Attempts, Attempt{Number: 1, Err: "transient"})
	tr.Retry(sp, 1, engine.Metrics{}, errors.New("transient"))
	sp.Attempts = append(sp.Attempts, Attempt{Number: 2})
	sp.Retries = 1
	tr.End(sp, engine.Metrics{Jobs: 1}, nil)
	tr.PlanDone(engine.Metrics{Jobs: 1})

	want := []EventKind{SpanStart, SpanRetry, SpanEnd, PlanDone}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}

	snap := tr.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("%d spans in snapshot", len(snap.Spans))
	}
	got := snap.Spans[0]
	if got.Wall <= 0 || got.EndedAt.Before(got.StartedAt) {
		t.Errorf("span timing: started %v ended %v wall %v", got.StartedAt, got.EndedAt, got.Wall)
	}
	if got.Failed() {
		t.Errorf("successful span reports failure %q", got.Err)
	}
	if len(got.Attempts) != 2 || got.Retries != 1 {
		t.Errorf("attempts = %v retries = %d", got.Attempts, got.Retries)
	}
}

func TestConsumersSerialized(t *testing.T) {
	inCallback := false // races under -race if callbacks overlap
	events := 0
	tr := New(func(Event) {
		if inCallback {
			t.Error("consumer re-entered concurrently")
		}
		inCallback = true
		defer func() { inCallback = false }()
		events++
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Begin(&Span{Kind: KindAtom, AtomID: i}, time.Time{})
			tr.End(sp, engine.Metrics{}, nil)
		}(i)
	}
	wg.Wait()
	if events != 32 {
		t.Errorf("saw %d events, want 32", events)
	}
	if got := len(tr.Snapshot().Spans); got != 16 {
		t.Errorf("%d spans recorded", got)
	}
	// IDs must be unique.
	seen := map[int]bool{}
	for _, sp := range tr.Snapshot().Spans {
		if seen[sp.ID] {
			t.Errorf("duplicate span ID %d", sp.ID)
		}
		seen[sp.ID] = true
	}
}

func TestTracePlatformsAndSpansOn(t *testing.T) {
	tr := New()
	for _, pl := range []engine.PlatformID{"a", "b", "a"} {
		sp := tr.Begin(&Span{Kind: KindAtom, Platform: pl}, time.Time{})
		tr.End(sp, engine.Metrics{}, nil)
	}
	snap := tr.Snapshot()
	pls := snap.Platforms()
	if len(pls) != 2 || pls[0] != "a" || pls[1] != "b" {
		t.Errorf("platforms = %v", pls)
	}
	if got := len(snap.SpansOn("a")); got != 2 {
		t.Errorf("%d spans on platform a", got)
	}
}

func TestFailedSpanAndAudit(t *testing.T) {
	tr := New()
	sp := tr.Begin(&Span{Kind: KindAtom, Platform: "chaos"}, time.Time{})
	tr.End(sp, engine.Metrics{}, errors.New("injected"))
	tr.Audit(CardAudit{OpID: 3, OpName: "filter", Estimated: 500, Actual: 0, ErrFactor: 500, Flagged: true})

	snap := tr.Snapshot()
	if !snap.Spans[0].Failed() || snap.Spans[0].Err != "injected" {
		t.Errorf("failed span = %+v", snap.Spans[0])
	}
	if len(snap.Audits) != 1 || !snap.Audits[0].Flagged {
		t.Errorf("audits = %+v", snap.Audits)
	}
}

func TestWriteJSONOneLinePerRecord(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		sp := tr.Begin(&Span{Kind: KindAtom, AtomID: i, Platform: "java", Name: "map"}, time.Time{})
		sp.Attempts = []Attempt{{Number: 1, Wall: time.Millisecond}}
		tr.End(sp, engine.Metrics{Jobs: 1, OutRecords: 10}, nil)
	}
	tr.Audit(CardAudit{OpID: 1, OpName: "map", Estimated: 10, Actual: 10, ErrFactor: 1})

	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	spans, audits := 0, 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		switch obj["type"] {
		case "span":
			spans++
			if obj["platform"] != "java" {
				t.Errorf("span line missing platform: %v", obj)
			}
		case "audit":
			audits++
		default:
			t.Errorf("unknown line type %v", obj["type"])
		}
	}
	if spans != 3 || audits != 1 {
		t.Errorf("dump has %d span lines and %d audit lines", spans, audits)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr := New()
	sp := tr.Begin(&Span{Kind: KindAtom}, time.Time{})
	tr.End(sp, engine.Metrics{}, nil)
	snap := tr.Snapshot()
	sp2 := tr.Begin(&Span{Kind: KindAtom}, time.Time{})
	tr.End(sp2, engine.Metrics{}, nil)
	if len(snap.Spans) != 1 {
		t.Errorf("earlier snapshot grew to %d spans", len(snap.Spans))
	}
}

// TestWriteJSONGoldenLines pins the exact JSONL shape (schema tag
// first, field order, timestamp format) so downstream tooling that
// parses -trace dumps breaks loudly here, not in the field. Bump
// JSONSchema and this golden when the shape changes.
func TestWriteJSONGoldenLines(t *testing.T) {
	tr := New()
	clock := time.Unix(1000, 0).UTC()
	tr.SetClock(func() time.Time { clock = clock.Add(time.Second); return clock })

	sp := tr.Begin(&Span{
		Kind: KindAtom, AtomID: 7, Name: "map", Platform: "java",
		Plan: "q1", Iteration: -1,
	}, time.Time{})
	sp.InFormats = map[string]int{"collection": 2, "batch": 1}
	sp.KindEst = KindCosts{{Kind: "Map", NS: 500}}
	tr.End(sp, engine.Metrics{Jobs: 1, OutRecords: 5}, nil)
	loop := tr.Begin(&Span{
		Kind: KindLoop, AtomID: 8, Name: "loop", Platform: "java",
		Plan: "q1", Iteration: -1,
	}, time.Time{})
	tr.End(loop, engine.Metrics{Jobs: 1, OutRecords: 2}, nil)
	adm := tr.Begin(&Span{
		Kind: KindAdmission, Name: "admission",
		Plan: "acme/demo#j-1", Iteration: -1,
		Job: "j-1", Tenant: "acme",
	}, time.Time{})
	tr.End(adm, engine.Metrics{}, nil)
	tr.Audit(CardAudit{
		OpID: 1, OpName: "map", Platform: "java",
		Estimated: 10, Actual: 40, ErrFactor: 4, Flagged: true,
		EstCost: 250 * time.Microsecond,
		OpKind:  "Map", RawEstimated: 10,
	})

	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"schema":4,"type":"span","id":1,"kind":"atom","atom_id":7,"name":"map","platform":"java","plan":"q1","iteration":-1,"started_at":"1970-01-01T00:16:41Z","ended_at":"1970-01-01T00:16:42Z","queue_wait_ns":0,"wall_ns":1000000000,"conv_ns":0,"conv_bytes":0,"conv_steps":0,"in_formats":{"batch":1,"collection":2},"est_cost_ns":0,"kind_est_ns":{"Map":500},"retries":0,"metrics":{"Wall":0,"Sim":0,"Jobs":1,"InRecords":0,"OutRecords":5,"ShuffledBytes":0,"MovedBytes":0,"Conversions":0,"Retries":0}}`,
		`{"schema":4,"type":"span","id":2,"kind":"loop","atom_id":8,"name":"loop","platform":"java","plan":"q1","iteration":-1,"started_at":"1970-01-01T00:16:43Z","ended_at":"1970-01-01T00:16:44Z","queue_wait_ns":0,"wall_ns":1000000000,"conv_ns":0,"conv_bytes":0,"conv_steps":0,"est_cost_ns":0,"retries":0,"metrics":{"Wall":0,"Sim":0,"Jobs":1,"InRecords":0,"OutRecords":2,"ShuffledBytes":0,"MovedBytes":0,"Conversions":0,"Retries":0}}`,
		`{"schema":4,"type":"span","id":3,"kind":"admission","atom_id":0,"name":"admission","platform":"","plan":"acme/demo#j-1","iteration":-1,"job":"j-1","tenant":"acme","started_at":"1970-01-01T00:16:45Z","ended_at":"1970-01-01T00:16:46Z","queue_wait_ns":0,"wall_ns":1000000000,"conv_ns":0,"conv_bytes":0,"conv_steps":0,"est_cost_ns":0,"retries":0,"metrics":{"Wall":0,"Sim":0,"Jobs":0,"InRecords":0,"OutRecords":0,"ShuffledBytes":0,"MovedBytes":0,"Conversions":0,"Retries":0}}`,
		`{"schema":4,"type":"audit","op_id":1,"op":"map","platform":"java","estimated":10,"actual":40,"err_factor":4,"flagged":true,"est_cost_ns":250000,"op_kind":"Map","raw_estimated":10}`,
	}
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("dump has %d lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

// TestSnapshotHandedOverNotShared: a snapshot hands over the tracer's
// own slices, capped, so spans ended and records audited after it —
// which land in the tracer's spare capacity — never show in it, and an
// append to it never writes into the tracer's.
func TestSnapshotHandedOverNotShared(t *testing.T) {
	tr := New()
	end := func(id int) {
		sp := tr.Begin(&Span{Kind: KindAtom, AtomID: id}, time.Time{})
		tr.End(sp, engine.Metrics{}, nil)
	}
	for id := 0; id < 3; id++ {
		end(id) // the span list's capacity is now 4
	}
	tr.Audit(append(make([]CardAudit, 0, 8), CardAudit{OpID: 0})...) // adopted with spare capacity
	snap := tr.Snapshot()
	end(3)
	tr.Audit(CardAudit{OpID: 1})
	if len(snap.Spans) != 3 || len(snap.Audits) != 1 || snap.Spans[2].AtomID != 2 || snap.Audits[0].OpID != 0 {
		t.Fatalf("a later End or Audit changed the snapshot: %d spans, %d audits", len(snap.Spans), len(snap.Audits))
	}
	snap.Spans = append(snap.Spans, &Span{AtomID: 99})
	snap.Audits = append(snap.Audits, CardAudit{OpID: 99})
	now := tr.Snapshot()
	if len(now.Spans) != 4 || now.Spans[3].AtomID != 3 || len(now.Audits) != 2 || now.Audits[1].OpID != 1 {
		t.Errorf("an append to a snapshot wrote into the tracer: spans %d (last atom %d), audits %v",
			len(now.Spans), now.Spans[len(now.Spans)-1].AtomID, now.Audits)
	}
}

// TestKindCostsJSONIsAnObject: the per-kind split reads and writes the
// object a map makes, keys sorted, so the trace line never changed
// when the split became a slice.
func TestKindCostsJSONIsAnObject(t *testing.T) {
	k := KindCosts{{Kind: "Sink", NS: 1}, {Kind: "Map", NS: 11}}
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Map":11,"Sink":1}`; string(b) != want {
		t.Errorf("KindCosts encodes as %s, want %s", b, want)
	}
	var back KindCosts
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != (KindCost{Kind: "Map", NS: 11}) || back[1] != (KindCost{Kind: "Sink", NS: 1}) {
		t.Errorf("KindCosts decodes as %v", back)
	}
}

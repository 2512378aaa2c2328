package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/engine"
	"rheem/internal/core/physical"
	"rheem/internal/core/trace"
	"rheem/internal/storage/blob"
)

var base = time.Unix(2000, 0).UTC()

// at offsets the test epoch by whole seconds.
func at(sec int) time.Time { return base.Add(time.Duration(sec) * time.Second) }

// span builds an ended atom span covering [start, end] seconds.
func span(id int, name string, start, end int) *trace.Span {
	return &trace.Span{
		ID: id, Kind: trace.KindAtom, AtomID: id, Name: name, Platform: "java",
		Plan: "p", Iteration: -1,
		StartedAt: at(start), EndedAt: at(end),
		Wall: at(end).Sub(at(start)),
	}
}

// chainAtoms wires spans into a linear dependency chain via their task
// atoms: span i+1's operator consumes span i's.
func chainAtoms(spans ...*trace.Span) {
	var prev *physical.Operator
	for _, sp := range spans {
		op := &physical.Operator{ID: sp.AtomID * 10}
		if prev != nil {
			op.Inputs = []*physical.Operator{prev}
		}
		sp.Atom = &engine.TaskAtom{ID: sp.AtomID, Kind: engine.AtomCompute, Ops: []*physical.Operator{op}}
		prev = op
	}
}

func TestCriticalPathSerialEqualsWall(t *testing.T) {
	spans := []*trace.Span{
		span(1, "source", 0, 1),
		span(2, "map", 1, 3),
		span(3, "sink", 3, 6),
	}
	chainAtoms(spans...)
	p := Build(1, "serial", at(0), at(6), "", spans)
	if p.WallNS != int64(6*time.Second) {
		t.Fatalf("wall = %d", p.WallNS)
	}
	if p.CriticalPathNS != p.WallNS {
		t.Errorf("critical path %d != wall %d for a serial plan", p.CriticalPathNS, p.WallNS)
	}
	if len(p.CriticalPath) != 3 {
		t.Fatalf("path has %d steps: %+v", len(p.CriticalPath), p.CriticalPath)
	}
	for i, wantName := range []string{"source", "map", "sink"} {
		if p.CriticalPath[i].Name != wantName {
			t.Errorf("step %d = %q, want %q", i, p.CriticalPath[i].Name, wantName)
		}
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// A feeds B and C (parallel; B is slower), both feed D.
	a, b, c, d := span(1, "a", 0, 1), span(2, "b", 1, 5), span(3, "c", 1, 2), span(4, "d", 5, 7)
	opA := &physical.Operator{ID: 10}
	opB := &physical.Operator{ID: 20, Inputs: []*physical.Operator{opA}}
	opC := &physical.Operator{ID: 30, Inputs: []*physical.Operator{opA}}
	opD := &physical.Operator{ID: 40, Inputs: []*physical.Operator{opB, opC}}
	for sp, op := range map[*trace.Span]*physical.Operator{a: opA, b: opB, c: opC, d: opD} {
		sp.Atom = &engine.TaskAtom{ID: sp.AtomID, Kind: engine.AtomCompute, Ops: []*physical.Operator{op}}
	}
	p := Build(1, "diamond", at(0), at(7), "", []*trace.Span{a, b, c, d})
	want := int64(7 * time.Second) // a(1) + b(4) + d(2)
	if p.CriticalPathNS != want {
		t.Errorf("critical path = %d, want %d", p.CriticalPathNS, want)
	}
	if p.CriticalPathNS > p.WallNS {
		t.Errorf("critical path %d exceeds wall %d", p.CriticalPathNS, p.WallNS)
	}
	got := make([]string, len(p.CriticalPath))
	for i, st := range p.CriticalPath {
		got[i] = st.Name
	}
	if strings.Join(got, ",") != "a,b,d" {
		t.Errorf("path = %v, want a,b,d", got)
	}
}

func TestCriticalPathIntervalFallback(t *testing.T) {
	// No atom structure: precedence falls back to end-before-start.
	spans := []*trace.Span{
		span(1, "x", 0, 2),
		span(2, "y", 2, 3),
		span(3, "z", 1, 4), // overlaps x and y: only x precedes it
	}
	p := Build(1, "fallback", at(0), at(4), "", spans)
	// Longest chain: x(2) + z's... z starts at 1 < x's end 2, so x does
	// NOT precede z; chains are x→y (3s) and z alone (3s). Tie broken
	// by lower span ID at the head.
	if p.CriticalPathNS != int64(3*time.Second) {
		t.Errorf("critical path = %d, want 3s", p.CriticalPathNS)
	}
	if p.CriticalPathNS > p.WallNS {
		t.Errorf("critical path %d exceeds wall %d", p.CriticalPathNS, p.WallNS)
	}
}

func TestAttributionBuckets(t *testing.T) {
	sp := span(1, "map", 0, 10)
	sp.QueueWait = 2 * time.Second
	sp.ConvTime = time.Second
	sp.Retries = 1
	sp.Attempts = []trace.Attempt{
		{Number: 1, Wall: 3 * time.Second, Err: "transient"},
		{Number: 2, Wall: 5 * time.Second},
	}
	sp.InFormats = map[string]int{"batch": 2}
	other := span(2, "sink", 10, 12)
	other.Platform = "spark"
	other.InFormats = map[string]int{"batch": 1, "collection": 1}
	p := Build(1, "attr", at(0), at(12), "", []*trace.Span{sp, other})

	if p.Total.QueueWaitNS != int64(2*time.Second) ||
		p.Total.ComputeNS != int64(7*time.Second) || // 5s success + other's 2s wall
		p.Total.ConvNS != int64(time.Second) ||
		p.Total.RetryNS != int64(3*time.Second) {
		t.Errorf("total buckets = %+v", p.Total)
	}
	if len(p.Platforms) != 2 || p.Platforms[0].Platform != "java" || p.Platforms[1].Platform != "spark" {
		t.Fatalf("platforms = %+v", p.Platforms)
	}
	if p.Platforms[0].RetryNS != int64(3*time.Second) || p.Platforms[1].ComputeNS != int64(2*time.Second) {
		t.Errorf("platform split = %+v", p.Platforms)
	}
	if len(p.Operators) != 2 || p.Operators[0].Name != "map" || p.Operators[0].Spans != 1 {
		t.Errorf("operators = %+v", p.Operators)
	}
	if len(p.Formats) != 2 || p.Formats["batch"] != 3 || p.Formats["collection"] != 1 {
		t.Errorf("formats = %v, want the atom spans' in_formats summed", p.Formats)
	}
}

func TestTopAtomsBounded(t *testing.T) {
	var spans []*trace.Span
	for i := 1; i <= TopN+5; i++ {
		spans = append(spans, span(i, fmt.Sprintf("op%d", i), 0, i))
	}
	p := Build(1, "top", at(0), at(TopN+5), "", spans)
	if len(p.TopAtoms) != TopN {
		t.Fatalf("top atoms = %d, want %d", len(p.TopAtoms), TopN)
	}
	if p.TopAtoms[0].WallNS != int64(time.Duration(TopN+5)*time.Second) {
		t.Errorf("slowest = %+v", p.TopAtoms[0])
	}
	for i := 1; i < len(p.TopAtoms); i++ {
		if p.TopAtoms[i].WallNS > p.TopAtoms[i-1].WallNS {
			t.Errorf("top atoms not sorted at %d", i)
		}
	}
}

func TestPhasesOrdered(t *testing.T) {
	mk := func(kind string, start, end int) *trace.Span {
		return &trace.Span{
			Kind: kind, Name: kind, Plan: "t/demo#j-1", Iteration: -1,
			Job: "j-1", Tenant: "t",
			StartedAt: at(start), EndedAt: at(end), Wall: at(end).Sub(at(start)),
		}
	}
	spans := []*trace.Span{
		span(1, "map", 2, 3),
		mk(trace.KindDispatch, 2, 4),
		mk(trace.KindAdmission, 0, 1),
		mk(trace.KindQueue, 1, 2),
	}
	p := Build(1, "phases", at(0), at(4), "", spans)
	if len(p.Phases) != 3 {
		t.Fatalf("phases = %+v", p.Phases)
	}
	for i, kind := range []string{trace.KindAdmission, trace.KindQueue, trace.KindDispatch} {
		if p.Phases[i].Kind != kind {
			t.Errorf("phase %d = %q, want %q", i, p.Phases[i].Kind, kind)
		}
	}
	if p.Phases[0].Job != "j-1" || p.Phases[0].Tenant != "t" {
		t.Errorf("phase correlation = %+v", p.Phases[0])
	}
	// Service spans are not atoms and not on the critical path.
	if p.Atoms != 1 {
		t.Errorf("atoms = %d", p.Atoms)
	}
}

func testRecord(t *testing.T) *Record {
	t.Helper()
	spans := []*trace.Span{
		span(1, "source", 0, 1),
		span(2, "map", 1, 3),
		span(3, "sink", 3, 6),
	}
	chainAtoms(spans...)
	spans[1].InFormats = map[string]int{"batch": 1}
	snap := &trace.Trace{Spans: spans, Audits: []trace.CardAudit{
		{OpID: 10, OpName: "map", Platform: "java", Estimated: 10, Actual: 20, ErrFactor: 2},
	}}
	return NewRecorder(4, nil).Record(7, "demo", at(0), at(6), nil, snap)
}

func TestPerfettoExportParsesAndIsDeterministic(t *testing.T) {
	rec := testRecord(t)
	var a, b bytes.Buffer
	if err := rec.WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("perfetto export is not deterministic")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export does not parse: %v\n%s", err, a.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var slices, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Errorf("slice %q has dur %d", ev.Name, ev.Dur)
			}
		case "M":
			metas++
		}
	}
	if slices != 3 || metas == 0 {
		t.Errorf("export has %d slices, %d metadata events", slices, metas)
	}
}

// Spans stamped by the live clock carry a monotonic reading; the same
// spans read back from storage do not. The export must not depend on it.
func TestPerfettoExportSurvivesLosingMonotonicReadings(t *testing.T) {
	spans := make([]*trace.Span, 2000)
	for i := range spans {
		sp := span(i+1, "op", 0, 0)
		sp.StartedAt = time.Now()
		sp.EndedAt = time.Now()
		spans[i] = sp
	}
	live := &Record{Spans: spans}
	raw, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var stored Record
	if err := json.Unmarshal(raw, &stored); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := live.WritePerfetto(&a); err != nil {
		t.Fatal(err)
	}
	if err := stored.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("perfetto export differs between live spans and the same spans read back from JSON")
	}
}

// stateDir opens a fresh blob directory for a recorder to persist into.
func stateDir(t *testing.T) *blob.Dir {
	t.Helper()
	dir, err := blob.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// persisted lists the files a recorder's directory holds.
func persisted(t *testing.T, dir *blob.Dir) []string {
	t.Helper()
	names, err := dir.List()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestRecorderEviction(t *testing.T) {
	store := stateDir(t)
	r := NewRecorder(2, store)
	for id := int64(1); id <= 3; id++ {
		r.Record(id, "run", at(0), at(1), nil, &trace.Trace{Spans: []*trace.Span{span(1, "op", 0, 1)}})
	}
	if got := r.Runs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("runs = %v, want [2 3]", got)
	}
	if _, ok := r.Get(1); ok {
		t.Error("evicted run 1 still retained")
	}
	if ds := persisted(t, store); len(ds) != 2 || ds[0] != "runprofile-2.json" || ds[1] != "runprofile-3.json" {
		t.Errorf("persisted files = %v", ds)
	}
	// A tighter bound evicts at once: a recorder keeping one record
	// rehydrates only the newest and deletes the other's file.
	r = NewRecorder(1, store)
	if _, err := r.LoadPersisted(); err != nil {
		t.Fatal(err)
	}
	if got := r.Runs(); len(got) != 1 || got[0] != 3 {
		t.Errorf("runs rehydrated under a bound of 1 = %v", got)
	}
	if ds := persisted(t, store); len(ds) != 1 || ds[0] != "runprofile-3.json" {
		t.Errorf("files after rehydrating under a bound of 1 = %v", ds)
	}
}

func TestRecorderAnnotate(t *testing.T) {
	r := NewRecorder(4, nil)
	r.Record(9, "demo", at(0), at(6), nil, &trace.Trace{Spans: []*trace.Span{span(1, "map", 1, 3)}})
	err := r.Annotate(9, &trace.Span{
		Kind: trace.KindDispatch, Name: "dispatch", Plan: "t/demo#j-1",
		Iteration: -1, Job: "j-1", Tenant: "t",
		StartedAt: at(0), EndedAt: at(6), Wall: 6 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := r.Get(9)
	if len(rec.Spans) != 2 || rec.Spans[1].ID != 2 {
		t.Fatalf("annotated spans = %+v", rec.Spans)
	}
	if len(rec.Profile.Phases) != 1 || rec.Profile.Phases[0].Kind != trace.KindDispatch {
		t.Errorf("profile phases = %+v", rec.Profile.Phases)
	}
	if err := r.Annotate(999, &trace.Span{Kind: trace.KindQueue}); err == nil {
		t.Error("annotating an unknown run did not error")
	}
}

// TestRecorderBuildsProfileOnce pins when the recorder builds: without
// a store not on Record or Annotate but on the first Get, which keeps
// the built record for every later reader; with one on Record, because
// the persisted JSON carries the profile.
func TestRecorderBuildsProfileOnce(t *testing.T) {
	r := NewRecorder(4, nil)
	if rec := r.Record(1, "lazy", at(0), at(3), nil, &trace.Trace{Spans: []*trace.Span{span(1, "map", 0, 3)}}); rec.Profile != nil {
		t.Error("Record built the profile of a run nobody has read")
	}
	first, _ := r.Get(1)
	again, _ := r.Get(1)
	if first.Profile == nil || first != again {
		t.Fatalf("Get returned %p then %p, want one built record", first, again)
	}
	if err := r.Annotate(1, &trace.Span{Kind: trace.KindQueue, Iteration: -1, StartedAt: at(0), EndedAt: at(1), Wall: time.Second}); err != nil {
		t.Fatal(err)
	}
	annotated, _ := r.Get(1)
	if annotated == first || first.Profile.Phases != nil || len(annotated.Profile.Phases) != 1 {
		t.Errorf("annotation changed the record already read, or its profile lacks the phase: %+v", annotated.Profile.Phases)
	}
	if p := annotated.Profile; p.WallNS != int64(3*time.Second) || p.Err != "" || p.Name != "lazy" {
		t.Errorf("profile built on read lost the run's times or name: %+v", p)
	}

	if rec := NewRecorder(4, stateDir(t)).Record(2, "kept", at(0), at(1), nil, nil); rec.Profile == nil {
		t.Error("a persisted record went to its file without its profile")
	}
}

func TestRecorderFailedRun(t *testing.T) {
	r := NewRecorder(4, nil)
	r.Record(3, "boom", at(0), at(2), errors.New("injected"), nil)
	rec, _ := r.Get(3)
	if rec.Profile.Err != "injected" || rec.Profile.Spans != 0 {
		t.Errorf("failed-run profile = %+v", rec.Profile)
	}
}

// TestRecorderPersistenceSurvivesRestart is the acceptance bar: a fresh
// recorder over the same directory, opened afresh, must reproduce the
// profile JSON and the Perfetto export byte-identically — and the file
// is the record's JSON, which encoding/json reads back as the record.
func TestRecorderPersistenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d1, err := blob.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRecorder(4, d1)
	spans := []*trace.Span{span(1, "source", 0, 1), span(2, "sink", 1, 4)}
	chainAtoms(spans...)
	spans[0].QueueWait = 100 * time.Millisecond
	spans[1].Attempts = []trace.Attempt{{Number: 1, Wall: 3 * time.Second}}
	r1.Record(5, "restart-demo", at(0), at(4), nil, &trace.Trace{Spans: spans})
	if err := r1.Annotate(5, &trace.Span{
		Kind: trace.KindDispatch, Name: "dispatch", Plan: "t/d#j-1",
		Iteration: -1, Job: "j-1", Tenant: "t",
		StartedAt: at(0), EndedAt: at(4), Wall: 4 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := r1.Get(5)
	profBefore, err := json.MarshalIndent(before.Profile, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var perfBefore bytes.Buffer
	if err := before.WritePerfetto(&perfBefore); err != nil {
		t.Fatal(err)
	}

	raw, err := d1.Get("runprofile-5.json")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := json.Marshal(before); err != nil || !bytes.Equal(raw, want) {
		t.Errorf("runprofile-5.json is not json.Marshal of the record (%v):\nfile %s\nwant %s", err, raw, want)
	}
	var decoded Record
	if err := json.Unmarshal(raw, &decoded); err != nil || decoded.RunID != 5 || decoded.Name != "restart-demo" || len(decoded.Spans) != 3 {
		t.Errorf("runprofile-5.json decodes to run %d %q with %d spans (%v)", decoded.RunID, decoded.Name, len(decoded.Spans), err)
	}

	// "Restart": a fresh directory handle and recorder over the same path.
	d2, err := blob.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRecorder(4, d2)
	maxID, err := r2.LoadPersisted()
	if err != nil {
		t.Fatal(err)
	}
	if maxID != 5 {
		t.Errorf("max persisted run ID = %d, want 5", maxID)
	}
	after, ok := r2.Get(5)
	if !ok {
		t.Fatal("run 5 missing after restart")
	}
	profAfter, err := json.MarshalIndent(after.Profile, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(profBefore, profAfter) {
		t.Errorf("profile changed across restart:\nbefore %s\nafter  %s", profBefore, profAfter)
	}
	var perfAfter bytes.Buffer
	if err := after.WritePerfetto(&perfAfter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(perfBefore.Bytes(), perfAfter.Bytes()) {
		t.Errorf("perfetto export changed across restart:\nbefore %s\nafter  %s", perfBefore.String(), perfAfter.String())
	}
	// Critical path (1s + 100ms queue wait + 3s) was computed
	// pre-restart from atom structure and must survive even though Atom
	// pointers are gone now.
	if after.Profile.CriticalPathNS != int64(4*time.Second+100*time.Millisecond) {
		t.Errorf("critical path after restart = %d", after.Profile.CriticalPathNS)
	}
	if after.Spans[0].Atom != nil {
		t.Error("persisted span carried its Atom pointer")
	}
}

// A record file that does not decode fails the load, naming the run:
// silently dropping it would look like a lost history.
func TestCorruptPersistedRecordFailsLoad(t *testing.T) {
	dir := stateDir(t)
	if err := dir.Put("runprofile-7.json", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	_, err := NewRecorder(4, dir).LoadPersisted()
	if err == nil || !strings.Contains(err.Error(), "run 7") {
		t.Fatalf("LoadPersisted over a garbage runprofile-7.json = %v, want an error naming run 7", err)
	}
}

// Files an older build wrote, and other kinds of state in the same
// directory, are not records: the load skips them.
func TestOldStateIgnoredOnLoad(t *testing.T) {
	dir := stateDir(t)
	for _, name := range []string{"runprofile-3.csv", "calibration.csv", "calibration.bin"} {
		if err := dir.Put(name, []byte("json\n\"{}\"\n")); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRecorder(4, dir)
	if maxID, err := r.LoadPersisted(); err != nil || maxID != 0 || len(r.Runs()) != 0 {
		t.Errorf("LoadPersisted over old state = max %d, runs %v, %v", maxID, r.Runs(), err)
	}
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/engine"
)

// schemaGolden is the key set of every WriteJSON line at JSONSchema 4,
// with each JSON type. rheem.WithMonitor hands callers trace.Event and
// /runs/{id}/trace.json serves these lines, so their shape is public:
// a change here is a schema change — bump JSONSchema, say what changed
// next to it, delete the file and run the test once to re-record (it
// writes the file and fails).
const schemaGolden = "testdata/schema_v4.golden"

// fullTrace is one span and one audit record with every field set: a
// zero field would be dropped by omitempty and leave its key unpinned.
func fullTrace() *Trace {
	at := time.Unix(1000, 0).UTC()
	m := engine.Metrics{Wall: 1, Sim: 2, Jobs: 3, InRecords: 4, OutRecords: 5,
		ShuffledBytes: 6, MovedBytes: 7, Conversions: 8, Retries: 9}
	sp := &Span{
		ID: 1, Kind: KindAtom, AtomID: 2, Name: "atom#2[map]", Platform: "java", Plan: "p",
		Iteration: 3, Job: "job-1", Tenant: "t",
		StartedAt: at, EndedAt: at.Add(time.Second), QueueWait: 5, Wall: 6,
		ConvTime: 7, ConvBytes: 8, ConvSteps: 9, InFormats: map[string]int{"batch": 1},
		EstCost: 10, KindEst: KindCosts{{Kind: "Map", NS: 11}},
		Attempts: []Attempt{{Number: 1, Wall: 12, Err: "boom", Fatal: true}},
		Retries:  1, Metrics: m, Err: "boom", Atom: &engine.TaskAtom{},
	}
	audit := CardAudit{OpID: 1, OpName: "map", Platform: "java", Estimated: 10, Actual: 100,
		ErrFactor: 10, Flagged: true, EstCost: 13, OpKind: "Map", RawEstimated: 12}
	return &Trace{Spans: []*Span{sp}, Audits: []CardAudit{audit}}
}

// keyPaths flattens a decoded JSON value into "path type" lines. Maps
// with caller-chosen keys (in_formats, kind_est_ns) contribute the
// type of their values, not their keys.
func keyPaths(prefix string, v any, out *[]string) {
	switch x := v.(type) {
	case map[string]any:
		open := strings.HasSuffix(prefix, "in_formats") || strings.HasSuffix(prefix, "kind_est_ns")
		for k, e := range x {
			if open {
				k = "*"
			}
			keyPaths(prefix+"."+k, e, out)
		}
	case []any:
		for _, e := range x {
			keyPaths(prefix+"[]", e, out)
		}
	case float64:
		*out = append(*out, prefix+" number")
	default:
		*out = append(*out, fmt.Sprintf("%s %T", prefix, v))
	}
}

// TestJSONSchemaFrozen pins the WriteJSON line format (ROADMAP item 3).
func TestJSONSchemaFrozen(t *testing.T) {
	tr := fullTrace()
	for _, v := range []any{*tr.Spans[0], tr.Spans[0].Attempts[0], tr.Spans[0].Metrics, tr.Audits[0]} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Errorf("fullTrace leaves %s.%s zero: set it, so the schema test pins its key", rv.Type(), rv.Type().Field(i).Name)
			}
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var paths []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line is not a JSON object: %v\n%s", err, sc.Text())
		}
		if got := line["schema"]; got != float64(JSONSchema) || JSONSchema != 4 {
			t.Errorf("line carries schema %v, JSONSchema is %d, the golden file is for 4", got, JSONSchema)
		}
		keyPaths(fmt.Sprint(line["type"]), line, &paths)
	}
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	want, err := os.ReadFile(schemaGolden)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(schemaGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; review it, commit it and run again", schemaGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("WriteJSON lines no longer match %s.\n--- got\n%s--- want\n%s", schemaGolden, got, want)
	}
}

// TestEventKindsFrozen pins the event vocabulary a WithMonitor callback
// switches on: kinds are only ever appended.
func TestEventKindsFrozen(t *testing.T) {
	for want, kind := range []EventKind{SpanStart, SpanRetry, SpanEnd, LoopIteration, Replan, Failover, PlanDone, RunStart, AuditRecords} {
		if int(kind) != want {
			t.Errorf("event kind #%d now has value %d", want, kind)
		}
	}
}

package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rheem/internal/core/metrics"
	"rheem/internal/core/profile"
)

func TestFormatHelpers(t *testing.T) {
	if Dur(0) != "0" {
		t.Error("Dur(0)")
	}
	if got := Dur(1500 * time.Microsecond); got != "1.5ms" {
		t.Errorf("Dur(1.5ms) = %q", got)
	}
	if got := Dur(2500 * time.Millisecond); got != "2.50s" {
		t.Errorf("Dur(2.5s) = %q", got)
	}
	if got := Dur(90 * time.Second); got != "1.5min" {
		t.Errorf("Dur(90s) = %q", got)
	}
	if !strings.HasPrefix(EstDur(time.Second), "> ") {
		t.Error("EstDur marker missing")
	}
	if got := Count(1234567); got != "1,234,567" {
		t.Errorf("Count = %q", got)
	}
	if got := Count(42); got != "42" {
		t.Errorf("Count = %q", got)
	}
	if got := Speedup(10*time.Second, time.Second); got != "10.0x" {
		t.Errorf("Speedup = %q", got)
	}
	if got := Speedup(time.Second, 10*time.Second); got != "1/10.0x" {
		t.Errorf("inverse Speedup = %q", got)
	}
	if Speedup(0, time.Second) != "-" {
		t.Error("Speedup(0, _)")
	}
}

func TestExtrapolateQuadratic(t *testing.T) {
	got := ExtrapolateQuadratic(time.Second, 100, 1000)
	if got != 100*time.Second {
		t.Errorf("10x size should be 100x time, got %v", got)
	}
	if ExtrapolateQuadratic(time.Second, 0, 10) != 0 {
		t.Error("zero base size should yield 0")
	}
}

func TestTablePrintAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "long-column"},
	}
	tab.AddRow("1", "x")
	tab.AddRow("222", "y,with\"comma")
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") {
		t.Errorf("Print output:\n%s", out)
	}
	buf.Reset()
	tab.CSV(&buf)
	if !strings.Contains(buf.String(), `"y,with""comma"`) {
		t.Errorf("CSV escaping wrong:\n%s", buf.String())
	}
}

func TestRegistry(t *testing.T) {
	names := Experiments()
	want := []string{"calibration", "chaos", "columnar", "fig2", "fig3left", "fig3right", "iejoin", "multiplatform", "optimizer", "reopt", "service", "sharding"}
	if len(names) != len(want) {
		t.Fatalf("experiments = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("experiments[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if _, err := Run("ghost", Config{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsQuick smoke-runs every experiment at quick scale
// and sanity-checks the emitted tables.
func TestAllExperimentsQuick(t *testing.T) {
	for _, name := range Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, err := Run(name, Config{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q row width %d vs %d columns", tab.Title, len(row), len(tab.Columns))
					}
				}
			}
		})
	}
}

// TestForcedRunsAreRecorded: every fixed-assignment workload hands its
// traced run to the hub's flight recorder — the sharding and columnar
// runs too, whose /runs/{id}/profile used to be a 404 under
// rheem-bench -metrics while a parallelism run's was served.
func TestForcedRunsAreRecorded(t *testing.T) {
	hub := metrics.NewHub()
	rec := profile.NewRecorder(0, nil)
	hub.SetFlightRecorder(rec)
	ctx, err := newCtx(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if _, err := RunWideTraced(ctx.Registry(), hub, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := RunColumnarTraced(ctx, hub, ColumnarRecords(100), true); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"wide-map": true, "colchain": true}
	for _, st := range hub.Runs().Status() {
		got, ok := rec.Get(st.ID)
		if !ok || got.Name != st.Name || got.Profile == nil {
			t.Errorf("run %d (%s) is not in the flight recorder: %+v", st.ID, st.Name, got)
		}
		delete(want, st.Name)
	}
	if len(want) != 0 {
		t.Errorf("the hub tracked no run named %v", want)
	}
}

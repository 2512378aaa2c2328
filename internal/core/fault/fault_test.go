package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"rheem/internal/core/channel"
	"rheem/internal/core/cost"
	"rheem/internal/core/engine"
)

// innerPlatform is a minimal healthy platform: every execution
// succeeds and returns no exits (the schedules under test never let
// data flow matter).
type innerPlatform struct {
	id    engine.PlatformID
	calls int
}

func (p *innerPlatform) ID() engine.PlatformID                { return p.id }
func (p *innerPlatform) NativeFormat() channel.Format         { return channel.Format("stub") }
func (p *innerPlatform) RegisterConverters(*channel.Registry) {}
func (p *innerPlatform) ExecuteAtom(ctx context.Context, atom *engine.TaskAtom, inputs engine.AtomInputs) ([]*channel.Channel, engine.Metrics, error) {
	p.calls++
	return make([]*channel.Channel, len(atom.Exits)), engine.Metrics{Jobs: 1}, nil
}

func atom(id int) *engine.TaskAtom {
	return &engine.TaskAtom{ID: id, Kind: engine.AtomCompute, Platform: "stub"}
}

func TestFailFirstNPerAtom(t *testing.T) {
	inner := &innerPlatform{id: "stub"}
	p := Wrap(inner, Options{Schedules: []Schedule{FailFirstN(2, nil)}})
	ctx := context.Background()
	for _, atomID := range []int{1, 2} {
		for call := 1; call <= 3; call++ {
			_, _, err := p.ExecuteAtom(ctx, atom(atomID), nil)
			if call <= 2 {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("atom %d call %d: err = %v, want injected", atomID, call, err)
				}
				if engine.IsFatal(err) {
					t.Fatalf("injected error classified fatal, so it would not be retried: %v", err)
				}
			} else if err != nil {
				t.Fatalf("atom %d call %d: unexpected err %v", atomID, call, err)
			}
		}
	}
	if st := p.Stats(); st.Calls != 6 || st.Injected != 4 {
		t.Errorf("stats = %+v, want 6 calls / 4 injected", st)
	}
	if inner.calls != 2 {
		t.Errorf("inner platform saw %d calls, want 2", inner.calls)
	}
	if p.CallsFor(1) != 3 {
		t.Errorf("CallsFor(1) = %d", p.CallsFor(1))
	}
}

func TestFailEveryKthAndAfterNAreGlobal(t *testing.T) {
	boom := errors.New("boom")
	p := Wrap(&innerPlatform{id: "stub"}, Options{Schedules: []Schedule{FailEveryKth(3, boom)}})
	ctx := context.Background()
	var failures []int
	for call := 1; call <= 9; call++ {
		// Distinct atoms: the counter must be platform-global.
		if _, _, err := p.ExecuteAtom(ctx, atom(call), nil); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("call %d: wrong cause %v", call, err)
			}
			failures = append(failures, call)
		}
	}
	if len(failures) != 3 || failures[0] != 3 || failures[1] != 6 || failures[2] != 9 {
		t.Errorf("FailEveryKth(3) failed calls %v, want [3 6 9]", failures)
	}

	p = Wrap(&innerPlatform{id: "stub"}, Options{Schedules: []Schedule{FailAfterN(2, nil)}})
	for call := 1; call <= 4; call++ {
		_, _, err := p.ExecuteAtom(ctx, atom(call), nil)
		if call <= 2 && err != nil {
			t.Fatalf("call %d failed before cutoff: %v", call, err)
		}
		if call > 2 && !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d succeeded after cutoff", call)
		}
	}
}

func TestFailMatchingAndKill(t *testing.T) {
	ctx := context.Background()
	p := Wrap(&innerPlatform{id: "stub"}, Options{Schedules: []Schedule{
		FailMatching(func(a *engine.TaskAtom) bool { return a.ID == 7 }, nil),
	}})
	if _, _, err := p.ExecuteAtom(ctx, atom(1), nil); err != nil {
		t.Fatalf("non-matching atom failed: %v", err)
	}
	if _, _, err := p.ExecuteAtom(ctx, atom(7), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching atom err = %v", err)
	}

	p.Kill(nil)
	if _, _, err := p.ExecuteAtom(ctx, atom(1), nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed platform err = %v", err)
	}
	p.Revive()
	if _, _, err := p.ExecuteAtom(ctx, atom(1), nil); err != nil {
		t.Fatalf("revived platform failed: %v", err)
	}
}

func TestLatencyIsDeterministicAndCancellable(t *testing.T) {
	mk := func() *Platform {
		return Wrap(&innerPlatform{id: "stub"}, Options{
			Latency: time.Millisecond, LatencyJitter: time.Millisecond, Seed: 42,
		})
	}
	// Jitter is a pure function of (seed, atom, call): two fresh
	// wrappers must compute identical delays.
	a, b := mk(), mk()
	for call := 1; call <= 5; call++ {
		if da, db := a.delay(3, call), b.delay(3, call); da != db {
			t.Fatalf("call %d: delays differ (%v vs %v)", call, da, db)
		} else if da < time.Millisecond || da >= 2*time.Millisecond {
			t.Fatalf("call %d: delay %v outside [1ms, 2ms)", call, da)
		}
	}

	slow := Wrap(&innerPlatform{id: "stub"}, Options{Latency: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := slow.ExecuteAtom(ctx, atom(1), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled latency err = %v", err)
	}
	if st := slow.Stats(); st.Cancelled != 1 {
		t.Errorf("stats = %+v, want Cancelled 1", st)
	}
}

func TestRegisterClonesDonorMappings(t *testing.T) {
	reg := engine.NewRegistry()
	donor := &innerPlatform{id: "donor"}
	if err := reg.RegisterPlatform(donor); err != nil {
		t.Fatal(err)
	}
	// Give the donor a mapping so there is something to clone. Cost
	// models live in the optimizer tests; any non-nil model works.
	m := engine.Mapping{Platform: "donor", Cost: cost.ConstModel(cost.Cost{})}
	if err := reg.RegisterMapping(m); err != nil {
		t.Fatal(err)
	}
	p := Wrap(&innerPlatform{id: "donor"}, Options{ID: "chaos"})
	if p.ID() != "chaos" {
		t.Fatalf("ID override ignored: %s", p.ID())
	}
	if err := Register(reg, p, "donor"); err != nil {
		t.Fatal(err)
	}
	var cloned int
	for _, m := range reg.Mappings() {
		if m.Platform == "chaos" {
			cloned++
		}
	}
	if cloned != 1 {
		t.Errorf("cloned %d mappings onto the wrapper, want 1", cloned)
	}
}

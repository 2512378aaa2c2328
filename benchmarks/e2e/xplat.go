package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"rheem"
	"rheem/internal/core/engine"
	"rheem/internal/core/optimizer"
	"rheem/internal/core/physical"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// xplat is xplat-udf: sensor readings through source → UDF Filter →
// UDF Map → ReduceByKey → UDF Map → Sort, forced across three platforms
// (source@relengine, filter@javaengine, map+reduce@sparksim,
// tail@javaengine). Two large conversions, a shuffle and opaque-UDF row
// kernels carry it, and the forced plan cannot flip when cost constants
// change.
type xplat struct {
	seed    uint64
	recs    []data.Record
	answers [xplatCuts]*answer
	ctx     *rheem.Context
}

// reading is one raw sensor reading; set-up computes the reference from
// these and hands the engine records built from them.
type reading struct {
	well, sensor                int64
	pressure, temperature, flow float64
}

const (
	xplatWells = 32
	// Each job filters at one of xplatCuts pressure cuts around the
	// lowest wells' mean: every job has its own answer, and the filter
	// keeps 86–89 % of the rows on all of them.
	xplatCuts = 11
)

func xplatCut(k int) float64 { return 100 + float64(k-xplatCuts/2)*0.2 }

func (w *xplat) name() string { return "xplat-udf" }
func (w *xplat) clients() int { return 1 }

func (w *xplat) setup(seed uint64, sc scale) error {
	w.seed = seed
	rng := newRand(seed, 2)
	readings := make([]reading, sc.xplatRows)
	w.recs = make([]data.Record, sc.xplatRows)
	for i := range readings {
		well := int64(rng.IntN(xplatWells))
		base := float64(well % 4)
		r := reading{
			well:        well,
			sensor:      int64(rng.IntN(64)),
			pressure:    100 + base*50 + rng.NormFloat64()*5,
			temperature: 60 + base*10 + rng.NormFloat64()*2,
			flow:        10 + base*3 + rng.NormFloat64(),
		}
		readings[i] = r
		w.recs[i] = data.NewRecord(data.Int(r.well), data.Int(r.sensor),
			data.Float(r.pressure), data.Float(r.temperature), data.Float(r.flow))
	}
	for k := range w.answers {
		w.answers[k] = xplatReference(readings, xplatCut(k))
	}
	var err error
	w.ctx, err = rheem.NewContext(rheem.Config{})
	return err
}

// xplatReference folds the readings at or above cut into per-well means,
// in plain Go.
func xplatReference(readings []reading, cut float64) *answer {
	var sums [xplatWells][3]float64
	var counts [xplatWells]int64
	for _, r := range readings {
		if r.pressure < cut {
			continue
		}
		s := &sums[r.well]
		s[0] += kpa(r.pressure)
		s[1] += r.temperature
		s[2] += r.flow
		counts[r.well]++
	}
	var rows []row
	for well, n := range counts {
		if n == 0 {
			continue
		}
		c := float64(n)
		rows = append(rows, row{int64(well), []float64{sums[well][0] / c, sums[well][1] / c, sums[well][2] / c}, n})
	}
	return newAnswer(rows, true)
}

// kpa is the normalisation UDF's unit conversion with clamping.
func kpa(psi float64) float64 {
	if p := psi * 6.894; p > 0 {
		return p
	}
	return 0
}

func (w *xplat) engine() *rheem.Context { return w.ctx }

func (w *xplat) close() { w.ctx.Close() }

func (w *xplat) cutIndex(i int) int { return pick(w.seed, i, xplatCuts) }

func (w *xplat) inputDigest() string {
	h := sha256.New()
	for _, r := range w.recs {
		binary.Write(h, binary.LittleEndian, reading{r.Field(0).Int(), r.Field(1).Int(),
			r.Field(2).Float(), r.Field(3).Float(), r.Field(4).Float()})
	}
	for i := 0; i < 64; i++ {
		binary.Write(h, binary.LittleEndian, int64(w.cutIndex(i)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *xplat) build(rec *recorder, i, parent int) (*plan.Plan, error) {
	id := rec.begin(i, parent, "plan.build")
	defer rec.end(id)
	cut := xplatCut(w.cutIndex(i))
	b := plan.NewBuilder("xplat")
	src := b.Source("readings", plan.Collection(w.recs))
	src.CardHint = int64(len(w.recs))
	kept := b.Filter(src, func(r data.Record) (bool, error) {
		return r.Field(2).Float() >= cut, nil
	})
	kept.Selectivity = 0.875
	norm := b.Map(kept, func(r data.Record) (data.Record, error) {
		return data.NewRecord(r.Field(0), data.Float(kpa(r.Field(2).Float())),
			r.Field(3), r.Field(4), data.Int(1)), nil
	})
	agg := b.ReduceByKey(norm, plan.FieldKey(0), func(a, b data.Record) (data.Record, error) {
		return data.NewRecord(a.Field(0),
			data.Float(a.Field(1).Float()+b.Field(1).Float()),
			data.Float(a.Field(2).Float()+b.Field(2).Float()),
			data.Float(a.Field(3).Float()+b.Field(3).Float()),
			data.Int(a.Field(4).Int()+b.Field(4).Int())), nil
	})
	feats := b.Map(agg, func(r data.Record) (data.Record, error) {
		n := float64(r.Field(4).Int())
		return data.NewRecord(r.Field(0), data.Vec([]float64{
			r.Field(1).Float() / n, r.Field(2).Float() / n, r.Field(3).Float() / n,
		}), r.Field(4)), nil
	})
	b.Collect(b.Sort(feats, plan.FieldKey(0), false))
	return b.Build()
}

// optOptions forces the assignment (the internal/bench/sharding.go
// idiom): the plan is a straight chain, so operators are told apart by
// kind and, for the two maps, by position relative to the reduce.
func (w *xplat) optOptions(pp *physical.Plan) optimizer.Options {
	fa := make(map[int]engine.PlatformID, len(pp.Ops))
	reduced := false
	for _, op := range pp.Ops {
		switch op.Kind() {
		case plan.KindSource:
			fa[op.ID] = relengine.ID
		case plan.KindReduceByKey:
			fa[op.ID] = sparksim.ID
			reduced = true
		case plan.KindMap:
			if reduced {
				fa[op.ID] = javaengine.ID
			} else {
				fa[op.ID] = sparksim.ID
			}
		default: // filter, sort, sink
			fa[op.ID] = javaengine.ID
		}
	}
	return optimizer.Options{DisableRules: true, ForcedAssignments: fa}
}

func (w *xplat) verify(i int, recs []data.Record) error {
	got, err := rowsFromRecords(recs)
	if err != nil {
		return fmt.Errorf("xplat: %w", err)
	}
	if err := w.answers[w.cutIndex(i)].check(got); err != nil {
		return fmt.Errorf("xplat: %w", err)
	}
	return nil
}

func (w *xplat) sample() []data.Record { return w.recs }
func (w *xplat) inputRows() int        { return len(w.recs) }

// job always goes through the explicit layer calls: ForcedAssignments
// is an optimizer option Context.Execute does not expose.
func (w *xplat) job(i int) error {
	_, err := engineJob(w, w.ctx, nil, i, nil)
	return err
}

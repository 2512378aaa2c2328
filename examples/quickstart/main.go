// Quickstart: the word-count of cross-platform analytics.
//
// Build a RHEEM context (all three bundled platforms), express a small
// pipeline once against the fluent API, and run it three times: pinned
// to the single-node engine, pinned to the Spark simulator, and with
// the multi-platform optimizer choosing. The results are identical;
// the execution plans are not — which is the point of the paper. A
// second job reads its input through a source function and counts the
// distinct long words among the first thousand; the last one reads a
// source inside a loop body.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rheem"
	"rheem/internal/core/plan"
	"rheem/internal/data"
	"rheem/internal/data/datagen"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/sparksim"
)

func main() {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		log.Fatal(err)
	}
	words := datagen.Words(10_000, 42)

	count := func(opts ...rheem.RunOption) ([]data.Record, *rheem.Report) {
		out, rep, err := ctx.NewJob("wordcount").
			ReadCollection("words", words).
			Map(func(r data.Record) (data.Record, error) {
				return r.Append(data.Int(1)), nil
			}).
			ReduceByKey(plan.FieldKey(0), plan.SumField(1)).
			Sort(plan.FieldKey(1), true).
			Collect(opts...)
		if err != nil {
			log.Fatal(err)
		}
		return out, rep
	}

	for _, cfg := range []struct {
		name string
		opts []rheem.RunOption
	}{
		{"pinned to java", []rheem.RunOption{rheem.OnPlatform(javaengine.ID)}},
		{"pinned to spark", []rheem.RunOption{rheem.OnPlatform(sparksim.ID)}},
		{"optimizer's choice", nil},
	} {
		out, rep := count(cfg.opts...)
		fmt.Printf("--- %s: %d distinct words, wall %v, simulated %v, %d jobs\n",
			cfg.name, len(out), rep.Metrics.Wall.Round(1e6), rep.Metrics.Sim.Round(1e6), rep.Metrics.Jobs)
		for _, r := range out[:3] {
			fmt.Printf("    %-12s %d\n", r.Field(0).Str(), r.Field(1).Int())
		}
	}

	// A source function instead of a slice, with a cardinality hint; a
	// filter with a selectivity hint (5 of the 12 vocabulary words are
	// long); then take the first 1 000 words, deduplicate and count.
	out, _, err := ctx.NewJob("long-words").
		ReadSource("words", func() ([]data.Record, error) { return words, nil }, int64(len(words))).
		Sample(1_000).
		Filter(func(r data.Record) (bool, error) { return len(r.Field(0).Str()) > 6, nil }, 5.0/12).
		Distinct().
		Count().
		Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- distinct words longer than 6 letters among the first 1 000: %d\n", out[0].Field(0).Int())

	// Explain shows where the optimizer put each task atom.
	p, err := ctx.NewJob("explain").
		ReadCollection("words", words).
		Map(func(r data.Record) (data.Record, error) { return r.Append(data.Int(1)), nil }).
		ReduceByKey(plan.FieldKey(0), plan.SumField(1)).
		Plan()
	if err != nil {
		log.Fatal(err)
	}
	explained, err := ctx.Explain(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecution plan chosen by the optimizer:\n%s", explained)

	// A loop body reads through a source function too, evaluated again
	// every round: starting from the first 100 words' vocabulary, each of
	// three rounds adds the thousand words after them and deduplicates.
	next := func() ([]data.Record, error) { return words[100:1_100], nil }
	out, _, err = ctx.NewJob("vocabulary").
		ReadCollection("seen", words[:100]).
		Distinct().
		Repeat(3, func(lb *rheem.LoopBody, seen *rheem.DataQuanta) *rheem.DataQuanta {
			return seen.Union(lb.ReadSource("batch", next, 1_000)).Distinct()
		}).
		Count().
		Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- vocabulary after three rounds of a loop reading a source: %d words\n", out[0].Field(0).Int())
}

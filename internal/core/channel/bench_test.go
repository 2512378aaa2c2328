package channel_test

import (
	"fmt"
	"testing"

	"rheem/internal/core/engine"
	"rheem/internal/platform/javaengine"
	"rheem/internal/platform/relengine"
	"rheem/internal/platform/sparksim"
)

// BenchmarkPathCost prices one path-cost question per ordered pair of
// formats in the three-platform conversion graph — the question the
// optimizer's DP asks for every (operator, consumer, producer) cell.
func BenchmarkPathCost(b *testing.B) {
	reg := engine.NewRegistry()
	if _, err := javaengine.Register(reg); err != nil {
		b.Fatal(err)
	}
	if _, err := sparksim.Register(reg, sparksim.Config{}); err != nil {
		b.Fatal(err)
	}
	if _, err := relengine.Register(reg); err != nil {
		b.Fatal(err)
	}
	graph := reg.Channels()
	var sink int64
	for _, from := range graph.Formats() {
		for _, to := range graph.Formats() {
			if from == to {
				continue
			}
			b.Run(fmt.Sprintf("%s→%s", from, to), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c, ok := graph.PathCost(from, to, 1<<20)
					if !ok {
						b.Fatalf("no path %s → %s", from, to)
					}
					sink += int64(c)
				}
			})
		}
	}
	_ = sink
}

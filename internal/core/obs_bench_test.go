package core

import (
	"context"
	"testing"

	"gea/internal/exec"
	"gea/internal/obs"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// BenchmarkAggregate pins the observability layer's suppression-free
// overhead guarantee on a real operator: without a collector on the
// context the instrumented hot path must cost what the uninstrumented
// one did (StartSpan returns nil before touching any state), and the
// traced variant quantifies what opting in costs.
func BenchmarkAggregate(b *testing.B) {
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	d := sage.Build(res.Corpus)
	e := FullEnum("bench", d)
	run := func(b *testing.B, ctx context.Context) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := exec.Run(ctx, exec.Limits{}, "core.Aggregate", "benchSumy", func(c *exec.Ctl) (*Sumy, bool, error) {
				return AggregateWith(c, "benchSumy", e, AggregateOptions{})
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("traced", func(b *testing.B) {
		col := obs.NewCollector()
		run(b, obs.WithCollector(context.Background(), col))
	})
}

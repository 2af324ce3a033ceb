package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gea/internal/exec"
	"gea/internal/exec/execwalk"
)

// TestSpanInvariantClusterers drives all five clusterers through the
// span-verified checkpoint walk: every probe (cancel, budget, panic,
// coarse cadence) must leave exactly one completed root span whose unit
// total matches the Ctl's charge total and whose outcome matches what the
// caller saw. Matched by the CI -race walk step.
func TestSpanInvariantClusterers(t *testing.T) {
	rows := walkRows()
	for _, tc := range []struct {
		name string
		op   string
		run  func(ctx context.Context, lim exec.Limits) (exec.Trace, error)
	}{
		{"Hierarchical", "cluster.Hierarchical", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.Hierarchical", "", func(c *exec.Ctl) (*Dendrogram, bool, error) {
				return HierarchicalWith(c, rows, EuclideanDistance, AverageLinkage)
			})
			return tr, err
		}},
		{"KMeans", "cluster.KMeans", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.KMeans", "", func(c *exec.Ctl) (*KMeansResult, bool, error) {
				return KMeansWith(c, rows, 2, rand.New(rand.NewSource(3)), 20)
			})
			return tr, err
		}},
		{"SOM", "cluster.SOM", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.SOM", "", func(c *exec.Ctl) (*SOMResult, bool, error) {
				return SOMWith(c, rows, SOMConfig{GridW: 2, GridH: 1, Epochs: 5}, rand.New(rand.NewSource(3)))
			})
			return tr, err
		}},
		{"OPTICS", "cluster.OPTICS", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.OPTICS", "", func(c *exec.Ctl) ([]OPTICSPoint, bool, error) {
				return OPTICSWith(c, rows, OPTICSConfig{Eps: math.Inf(1), MinPts: 2, Dist: EuclideanDistance})
			})
			return tr, err
		}},
		{"CAST", "cluster.CAST", func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.CAST", "", func(c *exec.Ctl) ([]int, bool, error) {
				return CASTWith(c, rows, CASTConfig{T: 0.5})
			})
			return tr, err
		}},
	} {
		verified := execwalk.SpanVerified(t, tc.op, tc.run)
		execwalk.Walk(t, execwalk.Target{Name: tc.name, Run: verified, MaxUnitStep: 1, MaxProbes: 8})
		// Worker sweep re-pins the unit-total identity on sharded paths.
		for _, w := range []int{1, 4} {
			if _, err := verified(context.Background(), exec.Limits{Workers: w}); err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, w, err)
			}
		}
	}
}

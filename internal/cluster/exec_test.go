package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gea/internal/exec"
	"gea/internal/exec/execwalk"
)

// walkRows builds a small deterministic dataset; each Run closure must
// reconstruct its rand source so every walk replay is identical.
func walkRows() [][]float64 {
	rng := rand.New(rand.NewSource(7))
	return twoBlobs(rng, 4)
}

func TestHierarchicalCheckpointWalk(t *testing.T) {
	rows := walkRows()
	execwalk.Walk(t, execwalk.Target{
		Name: "Hierarchical",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.Hierarchical", "", func(c *exec.Ctl) (*Dendrogram, bool, error) {
				return HierarchicalWith(c, rows, EuclideanDistance, AverageLinkage)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestKMeansCheckpointWalk(t *testing.T) {
	rows := walkRows()
	execwalk.Walk(t, execwalk.Target{
		Name: "KMeans",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.KMeans", "", func(c *exec.Ctl) (*KMeansResult, bool, error) {
				return KMeansWith(c, rows, 2, rand.New(rand.NewSource(3)), 20)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestSOMCheckpointWalk(t *testing.T) {
	rows := walkRows()
	cfg := SOMConfig{GridW: 2, GridH: 1, Epochs: 5}
	execwalk.Walk(t, execwalk.Target{
		Name: "SOM",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.SOM", "", func(c *exec.Ctl) (*SOMResult, bool, error) {
				return SOMWith(c, rows, cfg, rand.New(rand.NewSource(3)))
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestOPTICSCheckpointWalk(t *testing.T) {
	rows := walkRows()
	cfg := OPTICSConfig{Eps: math.Inf(1), MinPts: 2, Dist: EuclideanDistance}
	execwalk.Walk(t, execwalk.Target{
		Name: "OPTICS",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.OPTICS", "", func(c *exec.Ctl) ([]OPTICSPoint, bool, error) {
				return OPTICSWith(c, rows, cfg)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

func TestCASTCheckpointWalk(t *testing.T) {
	rows := walkRows()
	cfg := CASTConfig{T: 0.5}
	execwalk.Walk(t, execwalk.Target{
		Name: "CAST",
		Run: func(ctx context.Context, lim exec.Limits) (exec.Trace, error) {
			_, tr, err := exec.Run(ctx, lim, "cluster.CAST", "", func(c *exec.Ctl) ([]int, bool, error) {
				return CASTWith(c, rows, cfg)
			})
			return tr, err
		},
		MaxUnitStep: 1,
	})
}

// TestClusterParamErrors covers the typed up-front validation: the
// nonsensical k/eps/grid/threshold values — including the NaNs that used
// to sail through range comparisons — are rejected before any loop runs.
func TestClusterParamErrors(t *testing.T) {
	rows := walkRows()
	rng := rand.New(rand.NewSource(1))
	nan := math.NaN()
	cases := map[string]func() error{
		"kmeans k=0": func() error {
			_, _, err := KMeansWith(exec.Background(), rows, 0, rng, 10)
			return err
		},
		"kmeans k>n": func() error {
			_, _, err := KMeansWith(exec.Background(), rows, len(rows)+1, rng, 10)
			return err
		},
		"kmeans nil rng": func() error {
			_, _, err := KMeansWith(exec.Background(), rows, 2, nil, 10)
			return err
		},
		"kmeans ragged rows": func() error {
			_, _, err := KMeansWith(exec.Background(), [][]float64{{1, 2}, {1}}, 1, rng, 10)
			return err
		},
		"som zero grid": func() error {
			_, _, err := SOMWith(exec.Background(), rows, SOMConfig{GridW: 0, GridH: 2}, rng)
			return err
		},
		"som nan learning rate": func() error {
			_, _, err := SOMWith(exec.Background(), rows, SOMConfig{GridW: 2, GridH: 1, LearningRate: nan}, rng)
			return err
		},
		"som nan radius": func() error {
			_, _, err := SOMWith(exec.Background(), rows, SOMConfig{GridW: 2, GridH: 1, Radius: nan}, rng)
			return err
		},
		"optics minpts=0": func() error {
			_, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: 1, MinPts: 0})
			return err
		},
		"optics eps=0": func() error {
			_, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: 0, MinPts: 1})
			return err
		},
		"optics nan eps": func() error {
			_, _, err := OPTICSWith(exec.Background(), rows, OPTICSConfig{Eps: nan, MinPts: 1})
			return err
		},
		"cast t>1": func() error {
			_, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: 1.5})
			return err
		},
		"cast nan t": func() error {
			_, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: nan})
			return err
		},
		"hierarchical nil dist": func() error {
			_, _, err := HierarchicalWith(exec.Background(), rows, nil, AverageLinkage)
			return err
		},
		"hierarchical bad linkage": func() error {
			_, _, err := HierarchicalWith(exec.Background(), rows, EuclideanDistance, Linkage(99))
			return err
		},
		"hierarchical no rows": func() error {
			_, _, err := HierarchicalWith(exec.Background(), nil, EuclideanDistance, AverageLinkage)
			return err
		},
	}
	for name, run := range cases {
		err := run()
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want *ParamError", name, err)
		} else if pe.Op == "" || pe.Param == "" {
			t.Errorf("%s: ParamError missing detail: %+v", name, pe)
		}
	}
}

// TestCASTPartialNeverLies asserts a budget-stopped CAST leaves
// uncommitted rows at -1 instead of inventing cluster labels.
func TestCASTPartialNeverLies(t *testing.T) {
	rows := walkRows()
	full, _, err := CASTWith(exec.Background(), rows, CASTConfig{T: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget < 60; budget += 5 {
		labels, tr, err := exec.Run(context.Background(), exec.Limits{Budget: budget}, "cluster.CAST", "", func(c *exec.Ctl) ([]int, bool, error) {
			return CASTWith(c, rows, CASTConfig{T: 0.5})
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !tr.Partial {
			if NumClusters(labels) != NumClusters(full) {
				t.Fatalf("budget %d: silent truncation", budget)
			}
			continue
		}
		for i, l := range labels {
			if l < -1 || l >= len(rows) {
				t.Fatalf("budget %d: row %d has fabricated label %d", budget, i, l)
			}
		}
	}
}

// TestShardEquivHierarchical drives the agglomeration through the full
// sharded-equivalence suite: merges are appended only after a round's
// candidate scan completes, so the flagged partial dendrogram is always
// a strict prefix of the full merge list.
func TestShardEquivHierarchical(t *testing.T) {
	rows := walkRows()
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "Hierarchical",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			dg, tr, err := exec.Run(ctx, lim, "cluster.Hierarchical", "", func(c *exec.Ctl) (*Dendrogram, bool, error) {
				return HierarchicalWith(c, rows, EuclideanDistance, AverageLinkage)
			})
			if err != nil {
				return nil, tr, err
			}
			out := make([]string, len(dg.Merges))
			for i, m := range dg.Merges {
				out[i] = fmt.Sprintf("%d+%d@%x", m.A, m.B, m.Distance)
			}
			return out, tr, nil
		},
	})
}

// TestShardEquivOPTICS drives the ordering through the full suite: a
// budget stop in the matrix phase yields an empty ordering, one in the
// (sequential, deterministic) ordering phase a strict prefix of it.
func TestShardEquivOPTICS(t *testing.T) {
	rows := walkRows()
	cfg := OPTICSConfig{Eps: math.Inf(1), MinPts: 2, Dist: EuclideanDistance}
	execwalk.WalkSharded(t, execwalk.ShardedTarget{
		Name: "OPTICS",
		Run: func(ctx context.Context, workers int, lim exec.Limits) ([]string, exec.Trace, error) {
			lim.Workers = workers
			order, tr, err := exec.Run(ctx, lim, "cluster.OPTICS", "", func(c *exec.Ctl) ([]OPTICSPoint, bool, error) {
				return OPTICSWith(c, rows, cfg)
			})
			if err != nil {
				return nil, tr, err
			}
			out := make([]string, len(order))
			for i, p := range order {
				out[i] = fmt.Sprintf("%d r=%x c=%x", p.Index, p.Reachability, p.CoreDistance)
			}
			return out, tr, nil
		},
	})
}

// assertShardEquivalence asserts the substrate's promise for clusterers
// whose partial results are not row prefixes (a label exists for every
// row wherever the budget lands, reflecting the last applied update):
// bit-identical output and identical charges at every worker count on a
// full run, and bit-identical flagged output under any fixed budget.
func assertShardEquivalence(t *testing.T, run func(workers int, lim exec.Limits) ([]string, exec.Trace, error)) {
	t.Helper()
	base, baseTr, err := run(1, exec.Limits{})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	if baseTr.Partial {
		t.Fatal("baseline run flagged partial without any budget")
	}
	if baseTr.Units <= 0 {
		t.Fatal("operator charged no work units")
	}
	for _, w := range []int{2, 8} {
		rows, tr, err := run(w, exec.Limits{})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if tr.Partial {
			t.Fatalf("workers %d: unbudgeted run flagged partial", w)
		}
		if tr.Units != baseTr.Units {
			t.Fatalf("workers %d: charged %d units, workers 1 charged %d", w, tr.Units, baseTr.Units)
		}
		if !slicesEqual(base, rows) {
			t.Fatalf("workers %d: result differs from workers 1:\n%v\nvs\n%v", w, rows, base)
		}
	}
	for _, b := range []int64{1, baseTr.Units / 3, baseTr.Units / 2, baseTr.Units - 1} {
		if b < 1 {
			continue
		}
		var want []string
		for i, w := range []int{1, 2, 8} {
			rows, tr, err := run(w, exec.Limits{Budget: b})
			if err != nil {
				t.Fatalf("budget %d workers %d: %v", b, w, err)
			}
			if !tr.Partial {
				t.Fatalf("budget %d workers %d: truncated run not flagged partial", b, w)
			}
			if tr.Units > b {
				t.Fatalf("budget %d workers %d: charged %d units", b, w, tr.Units)
			}
			if i == 0 {
				want = rows
			} else if !slicesEqual(want, rows) {
				t.Fatalf("budget %d: workers %d result differs from workers 1:\n%v\nvs\n%v", b, w, rows, want)
			}
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShardEquivKMeans(t *testing.T) {
	rows := walkRows()
	assertShardEquivalence(t, func(workers int, lim exec.Limits) ([]string, exec.Trace, error) {
		lim.Workers = workers
		res, tr, err := exec.Run(context.Background(), lim, "cluster.KMeans", "", func(c *exec.Ctl) (*KMeansResult, bool, error) {
			return KMeansWith(c, rows, 2, rand.New(rand.NewSource(3)), 20)
		})
		if err != nil {
			return nil, tr, err
		}
		out := []string{fmt.Sprintf("labels=%v iters=%d inertia=%x", res.Labels, res.Iters, res.Inertia)}
		for _, cent := range res.Centroids {
			line := "cent"
			for _, v := range cent {
				line += fmt.Sprintf(" %x", v)
			}
			out = append(out, line)
		}
		return out, tr, nil
	})
}

func TestShardEquivSOM(t *testing.T) {
	rows := walkRows()
	cfg := SOMConfig{GridW: 2, GridH: 1, Epochs: 5}
	assertShardEquivalence(t, func(workers int, lim exec.Limits) ([]string, exec.Trace, error) {
		lim.Workers = workers
		res, tr, err := exec.Run(context.Background(), lim, "cluster.SOM", "", func(c *exec.Ctl) (*SOMResult, bool, error) {
			return SOMWith(c, rows, cfg, rand.New(rand.NewSource(3)))
		})
		if err != nil {
			return nil, tr, err
		}
		out := []string{fmt.Sprintf("labels=%v", res.Labels)}
		for _, w := range res.Weights {
			line := "unit"
			for _, v := range w {
				line += fmt.Sprintf(" %x", v)
			}
			out = append(out, line)
		}
		return out, tr, nil
	})
}

func TestShardEquivCAST(t *testing.T) {
	rows := walkRows()
	cfg := CASTConfig{T: 0.5}
	assertShardEquivalence(t, func(workers int, lim exec.Limits) ([]string, exec.Trace, error) {
		lim.Workers = workers
		labels, tr, err := exec.Run(context.Background(), lim, "cluster.CAST", "", func(c *exec.Ctl) ([]int, bool, error) {
			return CASTWith(c, rows, cfg)
		})
		if err != nil {
			return nil, tr, err
		}
		return []string{fmt.Sprintf("labels=%v", labels)}, tr, nil
	})
}

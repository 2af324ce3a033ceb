package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gea/internal/exec"
	"gea/internal/exec/shard"
)

// SOMConfig configures a self-organizing map run.
type SOMConfig struct {
	// GridW, GridH give the map dimensions. Golub et al. used small maps
	// (e.g. 2x1 for the ALL/AML split); Tamayo et al. larger grids.
	GridW, GridH int
	// Epochs is the number of passes over the data.
	Epochs int
	// LearningRate is the initial learning rate (decays linearly to ~0).
	LearningRate float64
	// Radius is the initial neighbourhood radius (decays to 0); zero means
	// max(GridW, GridH)/2.
	Radius float64
}

// SOMResult holds a trained map and the assignment of rows to map units.
type SOMResult struct {
	Config  SOMConfig
	Weights [][]float64 // GridW*GridH unit weight vectors
	Labels  []int       // best-matching unit (y*GridW+x) per row
}

// SOMWith trains a self-organizing map on the row vectors, the method
// "well suited to identifying a small number of prominent classes in a
// small data set" that Golub et al. used to separate ALL from AML
// (Section 2.3.2).
//
// One work unit is one training step (one sample folded into the map); a
// budget stop labels the rows against the partially trained map, flagged
// partial.
func SOMWith(c *exec.Ctl, rows [][]float64, cfg SOMConfig, rng *rand.Rand) (_ *SOMResult, partial bool, err error) {
	sp := c.StartSpan("cluster.SOM")
	sp.SetInput("%d rows, grid %dx%d", len(rows), cfg.GridW, cfg.GridH)
	defer c.EndSpan(sp, &partial, &err)
	n := len(rows)
	dim, err := validateRows("SOM", rows)
	if err != nil {
		return nil, false, err
	}
	if cfg.GridW < 1 || cfg.GridH < 1 {
		return nil, false, &ParamError{Op: "SOM", Param: "grid",
			Msg: fmt.Sprintf("grid %dx%d invalid", cfg.GridW, cfg.GridH)}
	}
	if badNumber(cfg.LearningRate) {
		return nil, false, &ParamError{Op: "SOM", Param: "LearningRate", Msg: "must not be NaN"}
	}
	if badNumber(cfg.Radius) {
		return nil, false, &ParamError{Op: "SOM", Param: "Radius", Msg: "must not be NaN"}
	}
	if rng == nil {
		return nil, false, &ParamError{Op: "SOM", Param: "rng", Msg: "random source required"}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.5
	}
	if cfg.Radius <= 0 {
		cfg.Radius = math.Max(float64(cfg.GridW), float64(cfg.GridH)) / 2
	}

	units := cfg.GridW * cfg.GridH
	weights := make([][]float64, units)
	//lint:gea ctlcharge -- weight initialization at random input rows; training steps are metered below
	for u := range weights {
		// Initialize each unit at a random input row plus noise.
		src := rows[rng.Intn(n)]
		w := make([]float64, dim)
		for j := range w {
			w[j] = src[j] * (1 + 0.01*rng.NormFloat64())
		}
		weights[u] = w
	}

	finish := func(partial bool) (*SOMResult, bool, error) {
		// The closing labeling pass runs on a fresh unbudgeted Ctl that
		// inherits only the worker count: it must complete even after a
		// budget stop (a charge on c would re-trip the exhausted budget),
		// and each row's best-matching unit is independent, so it shards.
		lc := exec.New(context.Background(), exec.Limits{Workers: c.Workers()})
		labels := make([]int, n)
		_, _, err := shard.For(lc, n, 0, func(lc *exec.Ctl, _, lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if err := lc.Point(1); err != nil {
					return i - lo, err
				}
				labels[i] = bestMatchingUnit(rows[i], weights)
			}
			return hi - lo, nil
		})
		if err != nil {
			return nil, false, err
		}
		return &SOMResult{Config: cfg, Weights: weights, Labels: labels}, partial, nil
	}

	order := rng.Perm(n)
	totalSteps := cfg.Epochs * n
	step := 0
	for e := 0; e < cfg.Epochs; e++ {
		// Reshuffle each epoch.
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, ri := range order {
			if err := c.Point(1); err != nil {
				if exec.IsBudget(err) {
					// Labels against the partially trained map, flagged.
					return finish(true)
				}
				return nil, false, err
			}
			frac := float64(step) / float64(totalSteps)
			lr := cfg.LearningRate * (1 - frac)
			radius := cfg.Radius * (1 - frac)
			bmu := bestMatchingUnit(rows[ri], weights)
			bx, by := bmu%cfg.GridW, bmu/cfg.GridW
			for u := range weights {
				ux, uy := u%cfg.GridW, u/cfg.GridW
				gd := math.Hypot(float64(ux-bx), float64(uy-by))
				if gd > radius {
					continue
				}
				infl := lr
				if radius > 0 {
					infl *= math.Exp(-gd * gd / (2 * (radius/2 + 1e-9) * (radius/2 + 1e-9)))
				}
				w := weights[u]
				for j := range w {
					w[j] += infl * (rows[ri][j] - w[j])
				}
			}
			step++
		}
	}

	return finish(false)
}

func bestMatchingUnit(r []float64, weights [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for u, w := range weights {
		if d := sqDist(r, w); d < bestD {
			bestD = d
			best = u
		}
	}
	return best
}

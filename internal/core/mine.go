package core

import (
	"fmt"

	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/sage"
)

// Algorithm selects the fascicle miner backing MineWith.
type Algorithm int

// Mining algorithms.
const (
	// LatticeAlgorithm is the exact level-wise miner (maximal fascicles).
	LatticeAlgorithm Algorithm = iota
	// GreedyAlgorithm is the single-pass batched heuristic.
	GreedyAlgorithm
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == GreedyAlgorithm {
		return "greedy"
	}
	return "lattice"
}

// MineResult bundles one mined cluster in both worlds, as the GEA's macro
// operation does: "immediately after the mining operation, both the SUMY
// table and the corresponding ENUM table are created with an automatic
// invocation of the populate operation" (Section 4.1).
type MineResult struct {
	Fascicle *fascicle.Fascicle
	Sumy     *Sumy
	Enum     *Enum
}

// MineWith runs fascicle production over the dataset — the mine() operator
// of Figure 3.1 — and converts each fascicle to its SUMY (definition) and
// ENUM (enumeration via populate) forms. Result names are prefix_1,
// prefix_2, ... in the miner's report order, mirroring the brain35k_1...
// naming of the case studies.
//
// The whole macro operation — mining plus the per-fascicle aggregate and
// populate conversions — shares c and so one budget; when it expires, the
// fully converted results so far are returned flagged partial
// (half-converted fascicles are dropped, never emitted).
func MineWith(c *exec.Ctl, prefix string, d *sage.Dataset, p fascicle.Params, alg Algorithm) (_ []MineResult, partial bool, err error) {
	sp := c.StartSpan("core.Mine")
	sp.SetInput("dataset: %d libraries x %d tags, alg=%v", d.NumLibraries(), d.NumTags(), alg)
	defer c.EndSpan(sp, &partial, &err)
	var fs []*fascicle.Fascicle
	switch alg {
	case GreedyAlgorithm:
		fs, partial, err = fascicle.GreedyWith(c, d, p)
	default:
		fs, partial, err = fascicle.LatticeWith(c, d, p)
	}
	if err != nil {
		return nil, false, err
	}

	results := make([]MineResult, 0, len(fs))
	for i, f := range fs {
		if err := c.Point(1); err != nil {
			if exec.IsBudget(err) {
				return results, true, nil
			}
			return nil, false, err
		}
		name := fmt.Sprintf("%s_%d", prefix, i+1)
		enumMembers, err := NewEnum(name+"_members", d, f.Rows, f.CompactCols)
		if err != nil {
			return nil, false, err
		}
		sumy, sp, err := AggregateWith(c, name+"Sumy", enumMembers, AggregateOptions{})
		if err != nil {
			return nil, false, err
		}
		if sp {
			// Budget died mid-conversion: drop the incomplete result.
			return results, true, nil
		}
		// populate() may admit libraries beyond the fascicle when the miner
		// is not maximal; for the exact lattice it returns the members.
		enum, _, ep, err := PopulateWith(c, name+"Enum", sumy, d, nil, PopulateOptions{})
		if err != nil {
			return nil, false, err
		}
		if ep {
			return results, true, nil
		}
		results = append(results, MineResult{Fascicle: f, Sumy: sumy, Enum: enum})
	}
	return results, partial, nil
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gea/internal/clean"
	"gea/internal/exec"
	"gea/internal/fascicle"
	"gea/internal/interval"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

// This file is the property side of the algebra's test pyramid: randomized
// sagegen corpora drive metamorphic identities that must hold for *any*
// input, not just the hand-built fixtures — tag-set laws for the SUMY set
// operators, the populate/mine round trip, the zero self-gap, and the
// always-true selection identity. Every identity is additionally asserted
// bit-identical at workers=1 vs workers=4, re-pinning shard determinism
// from the property side.

// propSeeds picks the random corpora. Three seeds keep the suite fast while
// still exercising structurally different datasets (library counts, tag
// universes and totals all vary with the seed).
var propSeeds = []int64{3, 17, 42}

// propConfig is a deliberately small corpus layout so each law can run at
// two worker counts across several seeds without dominating the package's
// test time.
func propConfig(seed int64) sagegen.Config {
	return sagegen.Config{
		Seed:           seed,
		Genes:          220,
		Housekeeping:   6,
		TissueSpecific: 12,
		PanCancerTags:  10,
		Tissues: []sagegen.TissueSpec{
			{Name: "brain", CancerLibs: 6, NormalLibs: 3, FascicleCore: 3, SignatureTags: 40},
			{Name: "kidney", CancerLibs: 4, NormalLibs: 2, FascicleCore: 2, SignatureTags: 30},
		},
		MinTotal:         2000,
		MaxTotal:         5000,
		ErrorRate:        0.05,
		CellLineFraction: 0.3,
	}
}

func propCorpus(t *testing.T, seed int64) *sagegen.Result {
	t.Helper()
	res, err := sagegen.Generate(propConfig(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

func propDataset(t *testing.T, seed int64) *sage.Dataset {
	t.Helper()
	return sage.Build(propCorpus(t, seed).Corpus)
}

// bothWorkers runs a governed operator at workers 1 and 4, asserts the
// rendered results are bit-identical, and returns the sequential result.
// Every law below routes its operator calls through here, so each identity
// doubles as a shard-determinism check.
func bothWorkers[T any](t *testing.T, label string, render func(T) []string, op func(lim exec.Limits) (T, error)) T {
	t.Helper()
	r1, err := op(exec.Limits{Workers: 1})
	if err != nil {
		t.Fatalf("%s (workers 1): %v", label, err)
	}
	r4, err := op(exec.Limits{Workers: 4})
	if err != nil {
		t.Fatalf("%s (workers 4): %v", label, err)
	}
	if a, b := strings.Join(render(r1), "\n"), strings.Join(render(r4), "\n"); a != b {
		t.Fatalf("%s: workers 1 and 4 disagree:\n--- workers 1 ---\n%s\n--- workers 4 ---\n%s", label, a, b)
	}
	return r1
}

// randIndices picks a random subset of [0, n) with at least lo elements,
// ascending.
func randIndices(rng *rand.Rand, n, lo int) []int {
	if lo > n {
		lo = n
	}
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:lo+rng.Intn(n-lo+1)]...)
	sort.Ints(out)
	return out
}

// randSumy aggregates a random sub-cluster of d into a SUMY; the
// aggregation itself runs through bothWorkers.
func randSumy(t *testing.T, rng *rand.Rand, d *sage.Dataset, name string) *Sumy {
	t.Helper()
	e, err := NewEnum(name+"_members", d, randIndices(rng, d.NumLibraries(), 2), randIndices(rng, d.NumTags(), 8))
	if err != nil {
		t.Fatal(err)
	}
	return bothWorkers(t, "aggregate "+name, renderSumy, func(lim exec.Limits) (*Sumy, error) {
		s, _, err := exec.Run(context.Background(), lim, "core.Aggregate", name, func(c *exec.Ctl) (*Sumy, bool, error) {
			return AggregateWith(c, name, e, AggregateOptions{})
		})
		return s, err
	})
}

func tagsOf(s *Sumy) string {
	tags := make([]string, len(s.Rows))
	for i, r := range s.Rows {
		tags[i] = fmt.Sprintf("%v", r.Tag)
	}
	return strings.Join(tags, " ") // rows are ascending by tag already
}

// TestAlgebraPropSumySetLaws checks the Boolean identities of the tag-level
// set operators over random SUMY triples: idempotence (row-for-row, since
// the left side's aggregates win), annihilation of self-minus,
// commutativity at the tag-set level, and both De Morgan duals expressed
// through minus (relative complement against a).
func TestAlgebraPropSumySetLaws(t *testing.T) {
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := propDataset(t, seed)
			rng := rand.New(rand.NewSource(seed * 7919))
			a := randSumy(t, rng, d, "a")
			b := randSumy(t, rng, d, "b")
			c := randSumy(t, rng, d, "c")

			op := func(kind string, f func(ctl *exec.Ctl, name string, x, y *Sumy) (*Sumy, bool, error)) func(name string, x, y *Sumy) *Sumy {
				return func(name string, x, y *Sumy) *Sumy {
					return bothWorkers(t, kind+" "+name, renderSumy, func(lim exec.Limits) (*Sumy, error) {
						s, _, err := exec.Run(context.Background(), lim, "core."+kind, name, func(ctl *exec.Ctl) (*Sumy, bool, error) {
							return f(ctl, name, x, y)
						})
						return s, err
					})
				}
			}
			union := op("union", UnionSumyWith)
			inter := op("intersect", IntersectSumyWith)
			minus := op("minus", MinusSumyWith)

			// Idempotence. Both operators keep a's rows verbatim, so the
			// whole rendering must match, not just the tag set.
			for name, got := range map[string]*Sumy{
				"union(a,a)":     union("u_aa", a, a),
				"intersect(a,a)": inter("i_aa", a, a),
			} {
				if ra, rg := strings.Join(renderSumy(a), "\n"), strings.Join(renderSumy(got), "\n"); ra != rg {
					t.Errorf("%s is not a:\n got:\n%s\nwant:\n%s", name, rg, ra)
				}
			}
			if got := minus("m_aa", a, a); len(got.Rows) != 0 {
				t.Errorf("minus(a,a) kept %d tags, want none", len(got.Rows))
			}

			// Commutativity holds at the tag-set level (aggregates come from
			// the left operand, so full rows may differ).
			if l, r := tagsOf(union("u_ab", a, b)), tagsOf(union("u_ba", b, a)); l != r {
				t.Errorf("union does not commute on tags:\n a∪b: %s\n b∪a: %s", l, r)
			}
			if l, r := tagsOf(inter("i_ab", a, b)), tagsOf(inter("i_ba", b, a)); l != r {
				t.Errorf("intersect does not commute on tags:\n a∩b: %s\n b∩a: %s", l, r)
			}

			// De Morgan duals, complementing relative to a via minus.
			if l, r := tagsOf(minus("dm1l", a, union("u_bc", b, c))),
				tagsOf(inter("dm1r", minus("m_ab", a, b), minus("m_ac", a, c))); l != r {
				t.Errorf("a−(b∪c) ≠ (a−b)∩(a−c):\n left: %s\nright: %s", l, r)
			}
			if l, r := tagsOf(minus("dm2l", a, inter("i_bc", b, c))),
				tagsOf(union("dm2r", minus("m_ab2", a, b), minus("m_ac2", a, c))); l != r {
				t.Errorf("a−(b∩c) ≠ (a−b)∪(a−c):\n left: %s\nright: %s", l, r)
			}
		})
	}
}

// TestAlgebraPropMinePopulate checks the populate/mine round trip on the
// brain slice of each random corpus (where sagegen plants a fascicle, so
// mining is non-vacuous by construction): every mined fascicle's members
// appear in its own enumeration — populate(mine(...)) results always
// contain their candidate sets, because aggregation takes [min, max] over
// exactly those members — re-populating a mined SUMY reproduces the stored
// ENUM, and the entropy-indexed populate path agrees with the sequential
// scan.
func TestAlgebraPropMinePopulate(t *testing.T) {
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := propCorpus(t, seed)
			d := sage.Build(&sage.Corpus{Libraries: res.Corpus.ByTissue("brain")})
			tol, err := clean.ToleranceVector(d, 10)
			if err != nil {
				t.Fatal(err)
			}
			p := fascicle.Params{K: d.NumTags() * 60 / 100, Tolerance: tol, MinSize: 3}

			renderResults := func(rs []MineResult) []string {
				var out []string
				for _, r := range rs {
					out = append(out, fmt.Sprintf("fascicle rows=%v compact=%v", r.Fascicle.Rows, r.Fascicle.CompactCols))
					out = append(out, renderSumy(r.Sumy)...)
					out = append(out, fmt.Sprintf("enum rows=%v", r.Enum.Rows))
				}
				return out
			}
			rs := bothWorkers(t, "mine", renderResults, func(lim exec.Limits) ([]MineResult, error) {
				rs, _, err := exec.Run(context.Background(), lim, "core.Mine", "prop", func(c *exec.Ctl) ([]MineResult, bool, error) {
					return MineWith(c, "prop", d, p, GreedyAlgorithm)
				})
				return rs, err
			})
			if len(rs) == 0 {
				t.Fatal("mining found no fascicles; the planted brain core should be discoverable")
			}

			idx, err := BuildTagIndexes(d, randIndices(rand.New(rand.NewSource(seed)), d.NumTags(), 4))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				inEnum := map[int]bool{}
				for _, row := range r.Enum.Rows {
					inEnum[row] = true
				}
				for _, row := range r.Fascicle.Rows {
					if !inEnum[row] {
						t.Errorf("%s: mined member %d does not satisfy its own definition", r.Sumy.Name, row)
					}
				}
				for name, tagIdx := range map[string]*TagIndexes{"sequential": nil, "indexed": idx} {
					e2 := bothWorkers(t, "re-populate "+r.Sumy.Name+" "+name,
						func(e *Enum) []string { return []string{fmt.Sprint(e.Rows)} },
						func(lim exec.Limits) (*Enum, error) {
							e, _, err := exec.Run(context.Background(), lim, "core.Populate", r.Sumy.Name+"_re", func(c *exec.Ctl) (*Enum, bool, error) {
								e, _, partial, err := PopulateWith(c, r.Sumy.Name+"_re", r.Sumy, d, tagIdx, PopulateOptions{})
								return e, partial, err
							})
							return e, err
						})
					if fmt.Sprint(e2.Rows) != fmt.Sprint(r.Enum.Rows) {
						t.Errorf("%s (%s): re-populating the definition gives %v, mined enumeration was %v",
							r.Sumy.Name, name, e2.Rows, r.Enum.Rows)
					}
				}
			}
		})
	}
}

// TestAlgebraPropDiffSelfIsNull checks that aggregating a random cluster
// and diffing it against itself yields the zero gap: the join keeps every
// tag and every gap level is NULL, since a range can never clear its own
// spread.
func TestAlgebraPropDiffSelfIsNull(t *testing.T) {
	renderGap := func(g *Gap) []string {
		out := make([]string, len(g.Rows))
		for i, r := range g.Rows {
			out[i] = fmt.Sprintf("%v %v", r.Tag, r.Values[0])
		}
		return out
	}
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := propDataset(t, seed)
			s := randSumy(t, rand.New(rand.NewSource(seed*31)), d, "self")
			g := bothWorkers(t, "diff(s,s)", renderGap, func(lim exec.Limits) (*Gap, error) {
				g, _, err := exec.Run(context.Background(), lim, "core.Diff", "selfGap", func(c *exec.Ctl) (*Gap, bool, error) {
					return DiffWith(c, "selfGap", s, s)
				})
				return g, err
			})
			if len(g.Rows) != len(s.Rows) {
				t.Errorf("diff(s,s) joined %d of %d tags, want all", len(g.Rows), len(s.Rows))
			}
			for _, r := range g.Rows {
				if !r.Values[0].Null {
					t.Errorf("tag %v: self-gap is %v, want NULL", r.Tag, r.Values[0])
				}
			}
		})
	}
}

// TestAlgebraPropSelectionIdentity checks that selection under an
// always-true predicate is the identity, in both selection forms: a SUMY
// row filter that accepts everything returns the table verbatim, and a
// range-arithmetic search whose Allen condition always holds reports every
// tag as satisfied with its own range.
func TestAlgebraPropSelectionIdentity(t *testing.T) {
	renderRows := func(rows []RangeSearchRow) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v %v [%x,%x]", r.Tag, r.Cells[0].Outcome, r.Cells[0].Range.Min, r.Cells[0].Range.Max)
		}
		return out
	}
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := propDataset(t, seed)
			s := randSumy(t, rand.New(rand.NewSource(seed*131)), d, "sel")

			kept := bothWorkers(t, "select always-true", renderSumy, func(lim exec.Limits) (*Sumy, error) {
				out, _, err := exec.Run(context.Background(), lim, "core.SelectSumy", "selAll", func(c *exec.Ctl) (*Sumy, bool, error) {
					return SelectSumyWith(c, "selAll", s, func(SumyRow) bool { return true })
				})
				return out, err
			})
			if a, b := strings.Join(renderSumy(s), "\n"), strings.Join(renderSumy(kept), "\n"); a != b {
				t.Errorf("always-true selection is not the identity:\n got:\n%s\nwant:\n%s", b, a)
			}

			first, last := s.Rows[0].Tag, s.Rows[len(s.Rows)-1].Tag
			rows := bothWorkers(t, "range search always-true", renderRows, func(lim exec.Limits) ([]RangeSearchRow, error) {
				rows, _, err := exec.Run(context.Background(), lim, "core.RangeSearch", "", func(c *exec.Ctl) ([]RangeSearchRow, bool, error) {
					return RangeSearchWith(c, []*Sumy{s}, first, last, func(interval.Interval) bool { return true })
				})
				return rows, err
			})
			if len(rows) != len(s.Rows) {
				t.Fatalf("always-true range search reported %d of %d tags", len(rows), len(s.Rows))
			}
			for _, r := range rows {
				sr, ok := s.Row(r.Tag)
				if !ok {
					t.Errorf("range search invented tag %v", r.Tag)
					continue
				}
				if len(r.Cells) != 1 || r.Cells[0].Outcome != RangeSatisfied || r.Cells[0].Range != sr.Range {
					t.Errorf("tag %v: cell %+v, want OK with the row's own range %v", r.Tag, r.Cells[0], sr.Range)
				}
			}
		})
	}
}

package xprofiler

import (
	"math"
	"testing"

	"gea/internal/exec"
	"gea/internal/sage"
	"gea/internal/sagegen"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPGivenXBasics(t *testing.T) {
	// Equal totals, x=0: p(y|0) = 1/2^(y+1).
	for y := 0; y <= 5; y++ {
		got := PGivenX(0, y, 1000, 1000)
		want := math.Pow(0.5, float64(y+1))
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("p(%d|0) = %v, want %v", y, got, want)
		}
	}
	// Invalid inputs.
	if PGivenX(-1, 0, 1, 1) != 0 || PGivenX(0, -1, 1, 1) != 0 || PGivenX(0, 0, 0, 1) != 0 {
		t.Error("invalid inputs should give 0")
	}
}

func TestPGivenXSumsToOne(t *testing.T) {
	for _, x := range []int{0, 3, 10, 40} {
		var sum float64
		for k := 0; k < 2000; k++ {
			sum += PGivenX(x, k, 5000, 8000)
		}
		if !almostEqual(sum, 1, 1e-6) {
			t.Errorf("sum p(k|%d) = %v", x, sum)
		}
	}
}

func TestTwoSidedPProperties(t *testing.T) {
	// Symmetric observation at equal totals: p-value should be large.
	if p := TwoSidedP(10, 10, 10000, 10000); p < 0.5 {
		t.Errorf("equal counts p = %v, want large", p)
	}
	// Extreme difference: p tiny.
	if p := TwoSidedP(100, 0, 10000, 10000); p > 1e-10 {
		t.Errorf("extreme difference p = %v, want tiny", p)
	}
	// Monotone-ish: more extreme y gives smaller p.
	p1 := TwoSidedP(50, 30, 10000, 10000)
	p2 := TwoSidedP(50, 10, 10000, 10000)
	if p2 >= p1 {
		t.Errorf("p(50,10)=%v should be < p(50,30)=%v", p2, p1)
	}
	// Bounds.
	for _, tc := range [][2]int{{0, 0}, {5, 5}, {100, 400}, {1000, 1200}} {
		p := TwoSidedP(tc[0], tc[1], 30000, 40000)
		if p < 0 || p > 1 {
			t.Errorf("p(%v) = %v out of [0,1]", tc, p)
		}
	}
	if TwoSidedP(1, 1, 0, 10) != 1 {
		t.Error("invalid totals should give p=1")
	}
}

// TestNormalApproxAgreesWithExact checks continuity across the cutoff.
func TestNormalApproxAgreesWithExact(t *testing.T) {
	// Just below cutoff: exact; just above: approximation. Compare a pair of
	// configurations straddling it with the same relative imbalance.
	exact := TwoSidedP(120, 80, 50000, 50000)  // x+y=200, exact
	approx := TwoSidedP(121, 81, 50000, 50000) // x+y=202, approx
	if math.Abs(math.Log10(exact)-math.Log10(approx)) > 0.5 {
		t.Errorf("exact %v vs approx %v diverge at cutoff", exact, approx)
	}
}

func buildCorpus(t *testing.T) (*sage.Corpus, *sagegen.Result) {
	t.Helper()
	res, err := sagegen.Generate(sagegen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res.Corpus, res
}

func TestNewPool(t *testing.T) {
	c, _ := buildCorpus(t)
	names := []string{c.Libraries[0].Meta.Name, c.Libraries[1].Meta.Name}
	p, err := NewPool("p", c, names)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total <= 0 || len(p.Counts) == 0 {
		t.Errorf("pool = %+v", p)
	}
	// Pool total equals the sum of member totals.
	want := c.Libraries[0].Total() + c.Libraries[1].Total()
	if !almostEqual(p.Total, want, 1e-6) {
		t.Errorf("pool total = %v, want %v", p.Total, want)
	}
	if _, err := NewPool("bad", c, []string{"nope"}); err == nil {
		t.Error("unknown library: expected error")
	}
	if _, err := NewPool("bad", c, nil); err == nil {
		t.Error("empty pool: expected error")
	}
}

func TestPoolByState(t *testing.T) {
	c, _ := buildCorpus(t)
	cancer, err := PoolByState(c, "brain", sage.Cancer)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := PoolByState(c, "brain", sage.Normal)
	if err != nil {
		t.Fatal(err)
	}
	if cancer.Total <= normal.Total/10 {
		t.Error("implausible pool totals")
	}
	if _, err := PoolByState(c, "liver", sage.Cancer); err == nil {
		t.Error("unknown tissue: expected error")
	}
}

// TestCompareRecoversPlantedSignature: comparing pooled cancerous vs normal
// brain must surface the planted brain signature genes.
func TestCompareRecoversPlantedSignature(t *testing.T) {
	c, res := buildCorpus(t)
	cancer, err := PoolByState(c, "brain", sage.Cancer)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := PoolByState(c, "brain", sage.Normal)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := CompareWith(exec.Background(), cancer, normal, Options{Alpha: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no significant tags")
	}
	// Results are sorted by p-value.
	for i := 1; i < len(results); i++ {
		if results[i-1].PValue > results[i].PValue {
			t.Fatal("results not sorted by p-value")
		}
	}
	// The pooled test should recover a substantial share of the planted
	// cancer-signature genes. (Its *precision* is limited — pooling also
	// flags compositional shifts in housekeeping and tissue-specific genes,
	// which is part of why the thesis prefers fascicle-based contrasts —
	// so we assert recall, not top-k purity.)
	sigTotal, sigHit := 0, 0
	hit := map[sage.TagID]bool{}
	for _, r := range results {
		hit[r.Tag] = true
	}
	for _, g := range res.Catalog.Genes {
		if (g.Role == sagegen.RoleCancerUp || g.Role == sagegen.RoleCancerDown) &&
			(g.Tissue == "brain" || g.Tissue == "") {
			sigTotal++
			if hit[g.Tag] {
				sigHit++
			}
		}
	}
	if sigHit*3 < sigTotal {
		t.Errorf("xProfiler recovered only %d of %d planted brain/pan signature genes", sigHit, sigTotal)
	}
	// Directions are consistent with rates.
	for _, r := range results {
		if r.HigherInA != (r.RateA > r.RateB) {
			t.Errorf("direction flag inconsistent: %+v", r)
		}
	}
}

func TestCompareOptionsValidation(t *testing.T) {
	c, _ := buildCorpus(t)
	a, _ := PoolByState(c, "brain", sage.Cancer)
	b, _ := PoolByState(c, "brain", sage.Normal)
	if _, _, err := CompareWith(exec.Background(), nil, b, Options{}); err == nil {
		t.Error("nil pool: expected error")
	}
	if _, _, err := CompareWith(exec.Background(), a, b, Options{Alpha: 2}); err == nil {
		t.Error("alpha > 1: expected error")
	}
	// Defaults apply.
	if _, _, err := CompareWith(exec.Background(), a, b, Options{}); err != nil {
		t.Errorf("default options: %v", err)
	}
}

func TestCompareNoDifference(t *testing.T) {
	// Comparing a pool against itself yields nothing significant.
	c, _ := buildCorpus(t)
	a, _ := PoolByState(c, "brain", sage.Normal)
	res, _, err := CompareWith(exec.Background(), a, a, Options{Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("self-comparison found %d significant tags", len(res))
	}
}

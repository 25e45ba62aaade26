package experiments

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// matchesGolden pins a rendered experiment bit for bit: testdata/<name>.golden
// is `parallax-bench -experiment <name>`'s output at the default 8×6 cluster,
// its trailing "(<name> in …s)" timing line dropped. Every test below checks
// its shape assertions and then the whole table, so a change that moves any
// printed number fails here even when the shapes still hold.
func matchesGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s no longer matches testdata/%s.golden\n--- got:\n%s--- want:\n%s", name, name, got, want)
	}
}

func TestTable1ShapesAndRender(t *testing.T) {
	env := DefaultEnv()
	res := Table1(env)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		sparseModel := row.SparseElems > 0
		if sparseModel && !(row.PS > row.AR) {
			t.Errorf("%s: PS (%v) should beat AR (%v)", row.Model, row.PS, row.AR)
		}
		if !sparseModel && !(row.AR > row.PS) {
			t.Errorf("%s: AR (%v) should beat PS (%v)", row.Model, row.AR, row.PS)
		}
		// Within a factor 2.5 of the paper's absolute numbers.
		for _, pair := range [][2]float64{{row.PS, row.PaperPS}, {row.AR, row.PaperAR}} {
			ratio := pair[0] / pair[1]
			if ratio < 0.4 || ratio > 2.5 {
				t.Errorf("%s: measured %v vs paper %v (ratio %.2f) out of band", row.Model, pair[0], pair[1], ratio)
			}
		}
	}
	matchesGolden(t, "table1", res.Render())
}

func TestTable2InteriorOptimumAndDip(t *testing.T) {
	res := Table2(DefaultEnv())
	lm := res.Throughput["LM"]
	if len(lm) != 6 {
		t.Fatalf("LM series = %v", lm)
	}
	if !(lm[1] > lm[0]) {
		t.Errorf("LM should improve from P=8 to P=16: %v", lm)
	}
	if !(lm[5] < lm[4]) {
		t.Errorf("LM should dip from P=128 to P=256: %v", lm)
	}
	matchesGolden(t, "table2", res.Render())
}

func TestTable3FormulasHold(t *testing.T) {
	res := Table3(DefaultEnv())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		err := math.Abs(row.Measured-row.Formula) / row.Formula
		if err > 0.05 {
			t.Errorf("%s: measured %v vs formula %v (%.1f%% off)", row.Case, row.Measured, row.Formula, err*100)
		}
	}
	matchesGolden(t, "table3", res.Render())
}

func TestTable4Ordering(t *testing.T) {
	res := Table4(DefaultEnv())
	for _, m := range res.Models {
		tp := res.Tp[m]
		if !(tp["HYB"] >= tp["OptPS"] && tp["OptPS"] >= tp["NaivePS"] && tp["NaivePS"] > tp["AR"]) {
			t.Errorf("%s ordering broken: %v", m, tp)
		}
	}
	matchesGolden(t, "table4", res.Render())
}

func TestTable6SpeedupGrowsAsAlphaShrinks(t *testing.T) {
	res := Table6(DefaultEnv())
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first := res.Rows[0] // length 120, alpha ~1
	last := res.Rows[len(res.Rows)-1]
	if !(last.Speedup > first.Speedup) {
		t.Errorf("speedup should grow as alpha shrinks: %.2f (a=%.2f) -> %.2f (a=%.2f)",
			first.Speedup, first.AlphaModel, last.Speedup, last.AlphaModel)
	}
	for _, row := range res.Rows {
		if row.Speedup < 1 {
			t.Errorf("length %d: Parallax slower than TF-PS (%.2fx)", row.Length, row.Speedup)
		}
	}
	matchesGolden(t, "table6", res.Render())
}

func TestFigure8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("48-run sweep")
	}
	res := Figure8(DefaultEnv())
	// Parallax never loses to either baseline at 8 machines.
	for _, model := range []string{"ResNet-50", "Inception-v3", "LM", "NMT"} {
		p8 := res.Tp[model]["Parallax"][3]
		for _, fw := range []string{"TF-PS", "Horovod"} {
			if p8 < res.Tp[model][fw][3]*0.99 {
				t.Errorf("%s: Parallax (%v) loses to %s (%v) at 8 machines", model, p8, fw, res.Tp[model][fw][3])
			}
		}
	}
	// Horovod's LM curve must be flat-to-decreasing past 2 machines.
	lm := res.Tp["LM"]["Horovod"]
	if lm[3] > lm[1]*1.5 {
		t.Errorf("Horovod LM should not scale: %v", lm)
	}
	// Dense models scale near-linearly on Parallax.
	rn := res.Tp["ResNet-50"]["Parallax"]
	if rn[3] < rn[0]*6 {
		t.Errorf("ResNet-50 Parallax scaling too weak: %v", rn)
	}
	matchesGolden(t, "fig8", res.Render())
}

func TestFigure9NormalizedBands(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	res := Figure9(DefaultEnv())
	check := func(model string, lo, hi float64) {
		s := res.Normalized[model]
		got := s[len(s)-1]
		if got < lo || got > hi {
			t.Errorf("%s normalized@48 = %.1f, want in [%v,%v] (paper %.1f)",
				model, got, lo, hi, res.Paper48[model]["Parallax"])
		}
	}
	// Paper: 39.8, 43.6, 9.4, 18.4. Allow generous bands.
	check("ResNet-50", 32, 48)
	check("Inception-v3", 35, 48)
	check("LM", 4, 25)
	check("NMT", 8, 40)
	// Ordering vs baselines (sparse models): Parallax > TF-PS > Horovod.
	for _, model := range []string{"LM", "NMT"} {
		p := res.Normalized[model][len(res.Normalized[model])-1]
		tf := res.At48[model]["TF-PS"]
		hv := res.At48[model]["Horovod"]
		if !(p > tf) || !(tf > hv) {
			t.Errorf("%s: normalized ordering broken: parallax %.1f tf %.1f horovod %.1f", model, p, tf, hv)
		}
	}
	matchesGolden(t, "fig9", res.Render())
}

func TestFigure7ConvergenceSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("real training")
	}
	res := Figure7(DefaultEnv())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Iterations <= 1 {
			t.Errorf("%s: trivial convergence (%d iters)", row.Model, row.Iterations)
		}
	}
	// LM and NMT: Parallax converges faster than both baselines.
	for _, i := range []int{1, 2} {
		row := res.Rows[i]
		if row.SpeedupVsTFPS() <= 1 || row.SpeedupVsHorovod() <= 1 {
			t.Errorf("%s: speedups %.2f / %.2f, want > 1", row.Model, row.SpeedupVsTFPS(), row.SpeedupVsHorovod())
		}
	}
	// Dense model: Parallax ~= Horovod (ratio near 1).
	r0 := res.Rows[0]
	if r := r0.SpeedupVsHorovod(); r < 0.9 || r > 1.3 {
		t.Errorf("dense model Parallax vs Horovod = %.2f, want ~1", r)
	}
	matchesGolden(t, "fig7", res.Render())
}

func TestTable5ParallaxNearOptimalWithFewRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force sweep")
	}
	res := Table5(DefaultEnv())
	for _, row := range res.Rows {
		if row.Parallax < row.Min {
			t.Errorf("%s: Parallax partitioning (%v) worse than Min (%v)", row.Model, row.Parallax, row.Min)
		}
		// Paper: "does not fall behind more than 5% compared to the
		// brute-force method" — allow 10% here.
		if row.Parallax < row.Optimal*0.90 {
			t.Errorf("%s: Parallax (%v) more than 10%% behind brute force (%v)", row.Model, row.Parallax, row.Optimal)
		}
		if row.ParallaxRuns*3 > row.BruteRuns {
			t.Errorf("%s: sampling used %d runs vs brute %d — not clearly cheaper", row.Model, row.ParallaxRuns, row.BruteRuns)
		}
	}
	matchesGolden(t, "table5", res.Render())
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps")
	}
	env := DefaultEnv()
	alpha := AblationAlphaThreshold(env)
	// Dense promotion must win at high alpha and lose at low alpha.
	if alpha[0].DenseWins {
		t.Errorf("alpha=%.2f: dense should not win (%v vs %v)", alpha[0].Alpha, alpha[0].AsDense, alpha[0].AsPS)
	}
	if !alpha[len(alpha)-1].DenseWins {
		t.Errorf("alpha=%.2f: dense should win (%v vs %v)",
			alpha[len(alpha)-1].Alpha, alpha[len(alpha)-1].AsDense, alpha[len(alpha)-1].AsPS)
	}

	local := AblationLocalAggregation(env)
	for _, r := range local {
		if r.WithLocal < r.Without {
			t.Errorf("%s: local aggregation hurt (%v vs %v)", r.Model, r.WithLocal, r.Without)
		}
	}

	placement := AblationPlacement(env)
	for _, r := range placement {
		if r.SmartImbal > r.NaiveImbal+0.01 {
			t.Errorf("%s: smart placement more imbalanced (%.2f vs %.2f)", r.Model, r.SmartImbal, r.NaiveImbal)
		}
	}
	matchesGolden(t, "ablations",
		RenderAblationAlpha(alpha, env)+RenderAblationLocalAgg(local)+RenderAblationPlacement(placement))
}

func TestExtensionPruning(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rows := ExtensionPruning(DefaultEnv())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Unpruned: hybrid == AR (no sparse variables).
	if rows[0].HybridPSVars != 0 {
		t.Errorf("unpruned model routed %d vars to PS", rows[0].HybridPSVars)
	}
	// Moderate pruning: the paper's conjecture holds — hybrid beats pure
	// AR, whose AllGatherv circulates large concatenations.
	mid := rows[1] // 50% pruning
	if !(mid.Hybrid > mid.PureAR) {
		t.Errorf("pruned %.0f%%: hybrid (%v) should beat pure AR (%v)", mid.PruneRatio*100, mid.Hybrid, mid.PureAR)
	}
	// Extreme pruning: the inversion — tiny AllGatherv blocks win while PS
	// still pays per-message costs (see the package comment).
	last := rows[len(rows)-1]
	if !(last.PureAR > last.PurePS) {
		t.Errorf("pruned %.0f%%: expected AR (%v) to beat PS (%v)", last.PruneRatio*100, last.PureAR, last.PurePS)
	}
	if last.HybridPSVars == 0 {
		t.Error("alpha-threshold rule routed nothing to PS at alpha=0.01")
	}
	matchesGolden(t, "pruning", RenderPruning(rows))
}

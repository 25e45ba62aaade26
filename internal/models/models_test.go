package models

import (
	"math"
	"slices"
	"testing"

	"parallax/internal/graph"
)

func TestPaperModelsValidate(t *testing.T) {
	for _, s := range PaperModels() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTable1ElementCounts(t *testing.T) {
	// Element counts must land near Table 1's values.
	check := func(name string, got, paper int64, tolFrac float64) {
		diff := math.Abs(float64(got-paper)) / float64(paper)
		if diff > tolFrac {
			t.Errorf("%s: %d elements vs paper %d (%.1f%% off)", name, got, paper, diff*100)
		}
	}
	r := ResNet50()
	check("ResNet-50 dense", r.DenseElements(), 23_800_000, 0.10)
	if r.SparseElements() != 0 {
		t.Error("ResNet-50 must have no sparse variables")
	}
	i := InceptionV3()
	check("Inception-v3 dense", i.DenseElements(), 25_600_000, 0.10)
	lm := LM()
	check("LM dense", lm.DenseElements(), 9_400_000, 0.10)
	check("LM sparse", lm.SparseElements(), 813_300_000, 0.02)
	n := NMT()
	check("NMT dense", n.DenseElements(), 94_100_000, 0.05)
	check("NMT sparse", n.SparseElements(), 74_900_000, 0.01)
}

func TestTable1AlphaModel(t *testing.T) {
	if a := ResNet50().AlphaModel(); a != 1 {
		t.Errorf("ResNet-50 alpha = %v, want 1", a)
	}
	if a := LM().AlphaModel(); math.Abs(a-0.02) > 0.005 {
		t.Errorf("LM alpha_model = %v, want ~0.02", a)
	}
	if a := NMT().AlphaModel(); math.Abs(a-0.65) > 0.02 {
		t.Errorf("NMT alpha_model = %v, want ~0.65", a)
	}
}

func TestCalibratedSingleGPUThroughput(t *testing.T) {
	// Units/step / step-time must match the paper-derived 1-GPU targets.
	targets := map[string]float64{
		"ResNet-50":    191,
		"Inception-v3": 135,
		"LM":           29100,
		"NMT":          11100,
	}
	for _, s := range PaperModels() {
		got := s.UnitsPerStepPerGPU() / (s.FwdTime + s.BwdTime)
		want := targets[s.Name]
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: 1-GPU throughput %v, want ~%v", s.Name, got, want)
		}
	}
}

func TestPartitionTargetsAreTheSparseVars(t *testing.T) {
	for _, s := range PaperModels() {
		for _, v := range s.Vars {
			if v.Sparse != v.PartitionTarget {
				t.Errorf("%s/%s: sparse=%v partitionTarget=%v", s.Name, v.Name, v.Sparse, v.PartitionTarget)
			}
		}
	}
}

func TestUnionAlpha(t *testing.T) {
	if got := UnionAlpha(0.5, 1); got != 0.5 {
		t.Fatalf("k=1: %v", got)
	}
	if got := UnionAlpha(0.5, 2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("k=2: %v, want 0.75", got)
	}
	// Monotone in k, bounded by 1.
	prev := 0.0
	for k := 1; k <= 64; k *= 2 {
		a := UnionAlpha(0.02, k)
		if a <= prev || a > 1 {
			t.Fatalf("UnionAlpha(0.02,%d) = %v not increasing in (0,1]", k, a)
		}
		prev = a
	}
}

func TestConstructedLMAlphaSweepsModelAlpha(t *testing.T) {
	lo := ConstructedLM(0.001, 1)
	hi := ConstructedLM(0.9, 120)
	if !(lo.AlphaModel() < hi.AlphaModel()) {
		t.Fatalf("alpha_model not increasing: %v vs %v", lo.AlphaModel(), hi.AlphaModel())
	}
	if err := lo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTinyModelsBuildAndClassify(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		// sparse names the variables with sparse gradients, all declared in
		// partitioner scope 0 (Fig. 3); every other variable is dense.
		sparse []string
	}{
		{"TinyLM", BuildTinyLM(DefaultTinyLM()), []string{"embedding"}},
		{"TinyNMT", BuildTinyNMT(DefaultTinyNMT()), []string{"emb_enc", "emb_dec"}},
		{"TinyMLP", BuildTinyMLP(DefaultTinyMLP()), nil},
	} {
		if err := tc.g.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		found := 0
		for _, v := range tc.g.Variables() {
			want := graph.GradDense
			if slices.Contains(tc.sparse, v.Name) {
				want = graph.GradSparse
				found++
				if v.PartitionScope != 0 {
					t.Errorf("%s %s: scope = %d, want 0", tc.name, v.Name, v.PartitionScope)
				}
			}
			if k := tc.g.GradKind(v); k != want {
				t.Errorf("%s %s: grad kind = %v, want %v", tc.name, v.Name, k, want)
			}
		}
		if found != len(tc.sparse) {
			t.Errorf("%s: %d of the sparse variables %v declared", tc.name, found, tc.sparse)
		}
	}
}

func TestTinyModelsExecutable(t *testing.T) {
	for _, g := range []*graph.Graph{
		BuildTinyLM(DefaultTinyLM()),
		BuildTinyNMT(DefaultTinyNMT()),
		BuildTinyMLP(DefaultTinyMLP()),
	} {
		if _, err := graph.NewExec(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpecValidateErrors(t *testing.T) {
	base := func() *Spec {
		return &Spec{Name: "x", Unit: "u", BatchPerGPU: 1, UnitsPerExample: 1,
			FwdTime: 0.1, BwdTime: 0.1, Layers: 1,
			Vars: []VarSpec{{Name: "v", Rows: 2, Width: 2, Alpha: 1, Layer: 0}}}
	}
	if err := base().Validate(); err != nil {
		t.Fatal(err)
	}
	s := base()
	s.Vars = nil
	if s.Validate() == nil {
		t.Error("no vars accepted")
	}
	s = base()
	s.Vars[0].Rows = 0
	if s.Validate() == nil {
		t.Error("empty shape accepted")
	}
	s = base()
	s.Vars[0].Alpha = 0
	if s.Validate() == nil {
		t.Error("alpha 0 accepted")
	}
	s = base()
	s.Vars[0].Alpha = 0.5 // dense with alpha != 1
	if s.Validate() == nil {
		t.Error("dense alpha != 1 accepted")
	}
	s = base()
	s.Vars[0].Layer = 5
	if s.Validate() == nil {
		t.Error("layer out of range accepted")
	}
	s = base()
	s.FwdTime = 0
	if s.Validate() == nil {
		t.Error("zero compute accepted")
	}
}

func TestConstructedLMPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConstructedLM(0, 1)
}

func TestTable6AlphaInverse(t *testing.T) {
	// Table6Alpha must invert AlphaModel over the valid range.
	for _, am := range []float64{0.1, 0.3, 0.6, 0.9} {
		as := Table6Alpha(am)
		spec := ConstructedLM(as, 10)
		if got := spec.AlphaModel(); math.Abs(got-am) > 0.01 {
			t.Errorf("alphaModel(%v) round trip = %v", am, got)
		}
	}
	// Below the dense floor it clamps to a tiny positive alpha.
	if as := Table6Alpha(0.001); as <= 0 || as > 0.01 {
		t.Errorf("sub-floor alpha = %v", as)
	}
	if as := Table6Alpha(2); as != 1 {
		t.Errorf("super-unit alpha = %v, want 1", as)
	}
}

func TestSpecFromGraphMirrorsGraph(t *testing.T) {
	g := BuildTinyLM(DefaultTinyLM())
	spec := SpecFromGraph(g, map[string]float64{"embedding": 0.2}, 32)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.Vars) != len(g.Variables()) {
		t.Fatalf("vars %d vs %d", len(spec.Vars), len(g.Variables()))
	}
	byName := map[string]VarSpec{}
	for _, v := range spec.Vars {
		byName[v.Name] = v
	}
	if !byName["embedding"].Sparse || byName["embedding"].Alpha != 0.2 {
		t.Errorf("embedding spec wrong: %+v", byName["embedding"])
	}
	if byName["lstm/kernel"].Sparse {
		t.Error("dense var marked sparse")
	}
	if spec.FwdTime <= 0 || spec.BwdTime != 2*spec.FwdTime {
		t.Errorf("compute estimate wrong: %v %v", spec.FwdTime, spec.BwdTime)
	}
	// Missing alpha hint falls back to a sane default.
	spec2 := SpecFromGraph(g, nil, 32)
	for _, v := range spec2.Vars {
		if v.Sparse && (v.Alpha <= 0 || v.Alpha > 1) {
			t.Errorf("default alpha out of range: %+v", v)
		}
	}
}

package engine

import (
	"fmt"
	"math"
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/models"
)

// runs holds every runArch result by configuration: the engine is
// deterministic (TestDeterministicResults), so a configuration several
// tests assert on is simulated once.
var runs = map[string]Result{}

// runArch simulates spec on machines×gpus with the given architecture.
func runArch(t *testing.T, spec *models.Spec, arch core.Arch, machines, gpus, parts int) Result {
	t.Helper()
	key := fmt.Sprintf("%s %v %dx%d P=%d", spec.Name, arch, machines, gpus, parts)
	if res, ok := runs[key]; ok {
		return res
	}
	res, err := RunArch(spec, arch, machines, gpus, parts, cluster.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	runs[key] = res
	return res
}

func TestComputeBoundSingleMachine(t *testing.T) {
	// One machine, one GPU, AR: no network, no servers; step time must be
	// close to pure compute (update costs are the only addition).
	spec := models.ResNet50()
	res := runArch(t, spec, core.ArchAR, 1, 1, 1)
	compute := spec.FwdTime + spec.BwdTime
	if res.StepTime < compute {
		t.Fatalf("step %v below compute floor %v", res.StepTime, compute)
	}
	if res.StepTime > compute*1.15 {
		t.Fatalf("step %v too far above compute %v for a 1-GPU run", res.StepTime, compute)
	}
	if res.MessagesPerIter != 0 {
		// Local-bus staging is not a network message; a single machine
		// still uses Transfer for nothing.
		t.Fatalf("1-machine run sent %v network messages", res.MessagesPerIter)
	}
}

func TestDenseModelsPreferAR(t *testing.T) {
	// Table 1's left half: AR beats PS for ResNet-50 and Inception-v3.
	for _, spec := range []*models.Spec{models.ResNet50(), models.InceptionV3()} {
		ar := runArch(t, spec, core.ArchAR, 8, 6, 1)
		ps := runArch(t, spec, core.ArchNaivePS, 8, 6, 1)
		if !(ar.Throughput > ps.Throughput) {
			t.Errorf("%s: AR %v should beat PS %v", spec.Name, ar.Throughput, ps.Throughput)
		}
		// The gap is moderate (paper: 7.6k vs 5.8k ≈ 1.3x), not an order
		// of magnitude.
		if ar.Throughput > ps.Throughput*3 {
			t.Errorf("%s: AR/PS gap %v unrealistically large", spec.Name, ar.Throughput/ps.Throughput)
		}
	}
}

func TestSparseModelsPreferPS(t *testing.T) {
	// Table 1's right half: PS beats AR for LM and NMT.
	for _, tc := range []struct {
		spec  *models.Spec
		parts int
	}{{models.LM(), 128}, {models.NMT(), 64}} {
		ps := runArch(t, tc.spec, core.ArchNaivePS, 8, 6, tc.parts)
		ar := runArch(t, tc.spec, core.ArchAR, 8, 6, tc.parts)
		if !(ps.Throughput > ar.Throughput*1.5) {
			t.Errorf("%s: PS %v should clearly beat AR %v", tc.spec.Name, ps.Throughput, ar.Throughput)
		}
	}
}

func TestHybridBeatsBothPureArchitectures(t *testing.T) {
	// Table 4's headline: HYB >= OptPS >= NaivePS and HYB > AR on sparse
	// models.
	for _, tc := range []struct {
		spec  *models.Spec
		parts int
	}{{models.LM(), 128}, {models.NMT(), 64}} {
		ar := runArch(t, tc.spec, core.ArchAR, 8, 6, tc.parts)
		naive := runArch(t, tc.spec, core.ArchNaivePS, 8, 6, tc.parts)
		opt := runArch(t, tc.spec, core.ArchOptPS, 8, 6, tc.parts)
		hyb := runArch(t, tc.spec, core.ArchHybrid, 8, 6, tc.parts)
		if !(hyb.Throughput >= opt.Throughput && opt.Throughput >= naive.Throughput) {
			t.Errorf("%s: want HYB(%v) >= OptPS(%v) >= NaivePS(%v)",
				tc.spec.Name, hyb.Throughput, opt.Throughput, naive.Throughput)
		}
		if !(hyb.Throughput > ar.Throughput) {
			t.Errorf("%s: hybrid %v must beat AR %v", tc.spec.Name, hyb.Throughput, ar.Throughput)
		}
	}
}

func TestHybridMatchesAROnDenseModels(t *testing.T) {
	// Fig 8(a,b): Parallax == Horovod on dense models (hybrid degenerates
	// to pure AR when no sparse variables exist).
	spec := models.ResNet50()
	ar := runArch(t, spec, core.ArchAR, 8, 6, 1)
	hyb := runArch(t, spec, core.ArchHybrid, 8, 6, 1)
	if math.Abs(ar.Throughput-hyb.Throughput)/ar.Throughput > 0.01 {
		t.Fatalf("hybrid %v != AR %v on a dense model", hyb.Throughput, ar.Throughput)
	}
}

func TestPartitionSweepHasInteriorOptimum(t *testing.T) {
	// Table 2's shape: throughput rises from P=8, peaks at an interior P,
	// and falls by P=256 ("blindly increasing the number of partitions is
	// not optimal").
	spec := models.LM()
	var tp []float64
	ps := []int{8, 32, 128, 256}
	for _, p := range ps {
		tp = append(tp, runArch(t, spec, core.ArchNaivePS, 8, 6, p).Throughput)
	}
	if !(tp[1] > tp[0]) {
		t.Fatalf("throughput should rise from P=8 (%v) to P=32 (%v)", tp[0], tp[1])
	}
	best := 0
	for i, v := range tp {
		if v > tp[best] {
			best = i
		}
	}
	if ps[best] == 8 || ps[best] == 256 {
		t.Fatalf("optimum at boundary P=%d; want interior (throughputs %v)", ps[best], tp)
	}
}

func TestARScalesNearLinearlyOnDense(t *testing.T) {
	// Fig 9: ResNet-50 at 48 GPUs scales to ~40x of 1 GPU.
	spec := models.ResNet50()
	one := runArch(t, spec, core.ArchAR, 1, 1, 1)
	full := runArch(t, spec, core.ArchAR, 8, 6, 1)
	norm := full.Throughput / one.Throughput
	if norm < 35 || norm > 48 {
		t.Fatalf("ResNet-50 normalized throughput %v, want ~40 of 48", norm)
	}
}

func TestARSparseScalingCollapses(t *testing.T) {
	// Fig 9 / Fig 8(c): Horovod's LM throughput barely improves (even
	// degrades) with more machines.
	spec := models.LM()
	two := runArch(t, spec, core.ArchAR, 2, 6, 1)
	eight := runArch(t, spec, core.ArchAR, 8, 6, 1)
	if eight.Throughput > two.Throughput*2 {
		t.Fatalf("AR sparse scaling too good: 2 machines %v, 8 machines %v",
			two.Throughput, eight.Throughput)
	}
}

func TestNetworkBytesMatchTable3AllReduce(t *testing.T) {
	// One dense variable, 1 GPU/machine: Table 3 says each machine moves
	// 4w(N-1)/N bytes per iteration under AR.
	const n = 4
	spec := &models.Spec{
		Name: "one-dense", Unit: "units", BatchPerGPU: 1, UnitsPerExample: 1,
		FwdTime: 0.01, BwdTime: 0.02, Layers: 1,
		Vars: []models.VarSpec{{Name: "w", Rows: 1000, Width: 1000, Alpha: 1, Layer: 0}},
	}
	res := runArch(t, spec, core.ArchAR, n, 1, 1)
	w := float64(spec.Vars[0].Bytes())
	want := 4 * w * float64(n-1) / float64(n)
	got := res.AvgMachineBytes()
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("AR bytes/machine = %v, Table 3 predicts %v", got, want)
	}
}

func TestNetworkBytesMatchTable3PS(t *testing.T) {
	// One sparse variable, 1 GPU/machine, PS: total traffic across all
	// machines is 2αw(N-1) worker-side... summed per-machine transfer
	// equals 4αw(N-1) (each byte counted at sender and receiver). The
	// machine hosting the variable carries the 2αw(N-1) hot-spot share.
	const n, alpha = 4, 0.25
	spec := &models.Spec{
		Name: "one-sparse", Unit: "units", BatchPerGPU: 1, UnitsPerExample: 1,
		FwdTime: 0.01, BwdTime: 0.02, Layers: 1,
		Vars: []models.VarSpec{{Name: "emb", Rows: 10000, Width: 100, Sparse: true, Alpha: alpha, Layer: 0}},
	}
	res := runArch(t, spec, core.ArchNaivePS, n, 1, 1)
	w := float64(spec.Vars[0].Bytes())
	wantTotal := 4 * alpha * w * float64(n-1)
	var gotTotal float64
	for _, b := range res.BytesPerMachine {
		gotTotal += b
	}
	if math.Abs(gotTotal-wantTotal)/wantTotal > 0.02 {
		t.Fatalf("PS total bytes = %v, Table 3 predicts %v", gotTotal, wantTotal)
	}
	// Hot spot (§3.1): the server machine handles 2αw(N-1) bytes, (N-1)×
	// the 2αw of a non-server machine.
	wantMax := 2 * alpha * w * float64(n-1)
	if math.Abs(res.MaxMachineBytes()-wantMax)/wantMax > 0.05 {
		t.Fatalf("server hot-spot bytes = %v, Table 3 predicts %v", res.MaxMachineBytes(), wantMax)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		res, err := RunArch(models.LM(), core.ArchHybrid, 4, 2, 16, cluster.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.StepTime != b.StepTime || a.Throughput != b.Throughput {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	spec := models.LM()
	plan, err := core.BuildPlan(PlanVars(spec), core.Options{Arch: core.ArchAR, NumMachines: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Model: nil, Plan: plan, Machines: 2, GPUsPerMachine: 1},
		{Model: spec, Plan: plan, Machines: 0, GPUsPerMachine: 1},
		{Model: spec, Plan: plan, Machines: 3, GPUsPerMachine: 1}, // plan/machines mismatch
	}
	for i, cfg := range bad {
		cfg.HW = cluster.DefaultHardware()
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// BenchmarkEngineStep_LMHybrid times one paper-scale simulation — the LM
// under the hybrid plan on 8×6 GPUs with 128 partitions — so ns/op and
// allocs/op measure the event kernel, the NIC model and the state machines
// on them.
func BenchmarkEngineStep_LMHybrid(b *testing.B) {
	b.ReportAllocs()
	hw := cluster.DefaultHardware()
	for b.Loop() {
		if _, err := RunArch(models.LM(), core.ArchHybrid, 8, 6, 128, hw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMoreGPUsMoreThroughput(t *testing.T) {
	spec := models.InceptionV3()
	t1 := runArch(t, spec, core.ArchHybrid, 2, 2, 1).Throughput
	t2 := runArch(t, spec, core.ArchHybrid, 4, 6, 1).Throughput
	if !(t2 > t1*2) {
		t.Fatalf("scaling broken: 4 GPUs %v, 24 GPUs %v", t1, t2)
	}
}

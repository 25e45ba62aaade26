package experiments

import (
	"fmt"
	"math"

	"parallax/internal/core"
	"parallax/internal/engine"
	"parallax/internal/metrics"
	"parallax/internal/models"
	"parallax/internal/partition"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one model's architecture comparison.
type Table1Row struct {
	Model                   string
	DenseElems, SparseElems int64
	AlphaModel              float64
	PS, AR                  float64 // measured throughput (units/s)
	PaperPS, PaperAR        float64
}

// Table1Result reproduces Table 1: variable sizes, α_model, and PS vs AR
// throughput for the four models on 48 GPUs.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the experiment.
func Table1(env Env) Table1Result {
	paper := map[string][2]float64{
		"ResNet-50":    {5_800, 7_600},
		"Inception-v3": {3_800, 5_900},
		"LM":           {98_900, 45_500},
		"NMT":          {102_000, 68_300},
	}
	var out Table1Result
	for _, spec := range models.PaperModels() {
		p := bestPartitions(spec)
		ps := env.run(spec, core.ArchNaivePS, env.Machines, env.GPUs, p)
		ar := env.run(spec, core.ArchAR, env.Machines, env.GPUs, p)
		out.Rows = append(out.Rows, Table1Row{
			Model:       spec.Name,
			DenseElems:  spec.DenseElements(),
			SparseElems: spec.SparseElements(),
			AlphaModel:  spec.AlphaModel(),
			PS:          ps.Throughput,
			AR:          ar.Throughput,
			PaperPS:     paper[spec.Name][0],
			PaperAR:     paper[spec.Name][1],
		})
	}
	return out
}

// Render formats the result.
func (r Table1Result) Render() string {
	t := metrics.NewTable("Table 1: variable sizes, alpha_model, PS vs AR throughput (48 GPUs)",
		"Model", "Dense", "Sparse", "alpha", "PS", "AR", "paper PS", "paper AR")
	for _, row := range r.Rows {
		t.AddRow(row.Model,
			fmt.Sprintf("%.1fM", float64(row.DenseElems)/1e6),
			fmt.Sprintf("%.1fM", float64(row.SparseElems)/1e6),
			fmt.Sprintf("%.2f", row.AlphaModel),
			humanize(row.PS), humanize(row.AR),
			humanize(row.PaperPS), humanize(row.PaperAR))
	}
	t.AddNote("PS = TF-PS (naive parameter server), AR = Horovod (NCCL AllReduce + MPI AllGatherv)")
	return t.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Result reproduces Table 2: PS throughput vs number of sparse
// variable partitions.
type Table2Result struct {
	Partitions []int
	Throughput map[string][]float64 // model -> per-partition-count
	Paper      map[string][]float64
}

// Table2 runs the sweep.
func Table2(env Env) Table2Result {
	out := Table2Result{
		Partitions: []int{8, 16, 32, 64, 128, 256},
		Throughput: map[string][]float64{},
		Paper: map[string][]float64{
			"LM":  {50_500, 78_600, 96_500, 96_100, 98_900, 93_200},
			"NMT": {90_700, 97_000, 96_500, 101_600, 98_500, 100_000},
		},
	}
	for _, spec := range []*models.Spec{models.LM(), models.NMT()} {
		for _, p := range out.Partitions {
			res := env.run(spec, core.ArchNaivePS, env.Machines, env.GPUs, p)
			out.Throughput[spec.Name] = append(out.Throughput[spec.Name], res.Throughput)
		}
	}
	return out
}

// Render formats the result.
func (r Table2Result) Render() string {
	headers := []string{"Model"}
	for _, p := range r.Partitions {
		headers = append(headers, fmt.Sprintf("P=%d", p))
	}
	t := metrics.NewTable("Table 2: PS throughput (words/s) vs partition count (48 GPUs)", headers...)
	for _, name := range []string{"LM", "NMT"} {
		row := []string{name}
		for _, v := range r.Throughput[name] {
			row = append(row, humanize(v))
		}
		t.AddRow(row...)
		prow := []string{name + " (paper)"}
		for _, v := range r.Paper[name] {
			prow = append(prow, humanize(v))
		}
		t.AddRow(prow...)
	}
	return t.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row compares the paper's closed-form per-machine network transfer
// (Table 3's m-variables column, all machines summed) against the engine
// NIC model's measured byte counters.
type Table3Row struct {
	Case      string
	Formula   float64 // predicted bytes per machine (cluster total / N)
	Measured  float64
	HotSpot   float64 // measured max machine bytes (PS asymmetry, §3.1)
	HotSpotOK bool
}

// Table3Result holds all four (type × architecture) combinations.
type Table3Result struct {
	Rows []Table3Row
	N    int
}

// Table3 measures network transfer with one worker per machine, matching
// the formulas' assumption ("each machine contains only one worker
// process").
func Table3(env Env) Table3Result {
	const n = 4
	const alpha = 0.2
	const mVars = 6
	mkSpec := func(sparse bool) *models.Spec {
		s := &models.Spec{
			Name: "micro", Unit: "units", BatchPerGPU: 1, UnitsPerExample: 1,
			FwdTime: 0.01, BwdTime: 0.02, Layers: mVars,
		}
		for i := 0; i < mVars; i++ {
			a := 1.0
			if sparse {
				a = alpha
			}
			s.Vars = append(s.Vars, models.VarSpec{
				Name: fmt.Sprintf("v%d", i), Rows: 5000, Width: 100,
				Sparse: sparse, Alpha: a, Layer: i,
			})
		}
		return s
	}
	w := float64(5000 * 100 * 4)
	var out Table3Result
	out.N = n

	add := func(name string, spec *models.Spec, arch core.Arch, perMachineFormula, hotFormula float64) {
		res := env.run(spec, arch, n, 1, 1)
		row := Table3Row{
			Case:     name,
			Formula:  perMachineFormula,
			Measured: res.AvgMachineBytes(),
			HotSpot:  res.MaxMachineBytes(),
		}
		row.HotSpotOK = hotFormula == 0 ||
			math.Abs(res.MaxMachineBytes()-hotFormula)/hotFormula < 0.1
		out.Rows = append(out.Rows, row)
	}

	nn := float64(n)
	m := float64(mVars)
	// Dense PS: 4wm(N-1)/N per machine.
	add("dense/PS", mkSpec(false), core.ArchNaivePS, 4*w*m*(nn-1)/nn, 0)
	// Dense AR: 4wm(N-1)/N per machine; no hot spot.
	add("dense/AR", mkSpec(false), core.ArchAR, 4*w*m*(nn-1)/nn, 0)
	// Sparse PS: 4αwm(N-1)/N per machine.
	add("sparse/PS", mkSpec(true), core.ArchNaivePS, 4*alpha*w*m*(nn-1)/nn, 0)
	// Sparse AR (AllGatherv): 2αwm(N-1) per machine.
	add("sparse/AR", mkSpec(true), core.ArchAR, 2*alpha*w*m*(nn-1), 0)
	return out
}

// Render formats the result.
func (r Table3Result) Render() string {
	t := metrics.NewTable(fmt.Sprintf("Table 3: network transfer per machine, %d machines, m variables", r.N),
		"Case", "formula", "measured", "err%", "max machine")
	for _, row := range r.Rows {
		errPct := 100 * math.Abs(row.Measured-row.Formula) / row.Formula
		t.AddRow(row.Case,
			metrics.HumanBytes(row.Formula),
			metrics.HumanBytes(row.Measured),
			fmt.Sprintf("%.1f", errPct),
			metrics.HumanBytes(row.HotSpot))
	}
	t.AddNote("formulas from Table 3 of the paper; measured = the engine NIC model's byte counters per iteration")
	return t.String()
}

// ---------------------------------------------------------------- Table 4

// Table4Result reproduces Table 4: throughput of AR, naive PS, optimized
// PS and the hybrid architecture.
type Table4Result struct {
	Models []string
	Archs  []string
	Tp     map[string]map[string]float64 // model -> arch -> throughput
	Paper  map[string]map[string]float64
}

// Table4 runs the ablation.
func Table4(env Env) Table4Result {
	out := Table4Result{
		Archs: []string{"AR", "NaivePS", "OptPS", "HYB"},
		Tp:    map[string]map[string]float64{},
		Paper: map[string]map[string]float64{
			"LM":  {"AR": 45_500, "NaivePS": 98_900, "OptPS": 250_000, "HYB": 274_000},
			"NMT": {"AR": 68_300, "NaivePS": 102_000, "OptPS": 116_000, "HYB": 204_000},
		},
	}
	for _, spec := range []*models.Spec{models.LM(), models.NMT()} {
		p := bestPartitions(spec)
		out.Models = append(out.Models, spec.Name)
		out.Tp[spec.Name] = map[string]float64{
			"AR":      env.run(spec, core.ArchAR, env.Machines, env.GPUs, p).Throughput,
			"NaivePS": env.run(spec, core.ArchNaivePS, env.Machines, env.GPUs, p).Throughput,
			"OptPS":   env.run(spec, core.ArchOptPS, env.Machines, env.GPUs, p).Throughput,
			"HYB":     env.run(spec, core.ArchHybrid, env.Machines, env.GPUs, p).Throughput,
		}
	}
	return out
}

// Render formats the result.
func (r Table4Result) Render() string {
	t := metrics.NewTable("Table 4: architecture ablation (words/s, 48 GPUs)",
		"Model", "AR", "NaivePS", "OptPS", "HYB (AR+OptPS)", "source")
	for _, m := range r.Models {
		t.AddRow(m, humanize(r.Tp[m]["AR"]), humanize(r.Tp[m]["NaivePS"]),
			humanize(r.Tp[m]["OptPS"]), humanize(r.Tp[m]["HYB"]), "measured")
		t.AddRow(m, humanize(r.Paper[m]["AR"]), humanize(r.Paper[m]["NaivePS"]),
			humanize(r.Paper[m]["OptPS"]), humanize(r.Paper[m]["HYB"]), "paper")
	}
	return t.String()
}

// ---------------------------------------------------------------- Table 5

// Table5Row compares partitioning methods for one model.
type Table5Row struct {
	Model                     string
	Parallax, Min, Optimal    float64 // throughput
	ParallaxP, MinP, OptimalP int
	ParallaxRuns, BruteRuns   int
}

// Table5Result reproduces Table 5: Parallax's sampling-based partitioning
// vs the minimum feasible count vs brute force.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 runs the comparison. The measure function behind both searches is
// a real engine run per candidate P, matching §3.2's "performing actual
// training with different values for P, for a few iterations".
func Table5(env Env) Table5Result {
	var out Table5Result
	for _, spec := range []*models.Spec{models.LM(), models.NMT()} {
		minP := 4
		if spec.Name == "NMT" {
			minP = 2
		}
		// The search and the brute-force sweep share candidates, and the
		// table reports the winners' throughput: each P is simulated once.
		runs := map[int]engine.Result{}
		run := func(p int) engine.Result {
			res, ok := runs[p]
			if !ok {
				res = env.run(spec, core.ArchHybrid, env.Machines, env.GPUs, p)
				runs[p] = res
			}
			return res
		}
		measure := func(p int) float64 { return run(p).StepTime }
		search, err := partition.Search(measure, env.Machines, 2048)
		if err != nil {
			panic(err)
		}
		brute := partition.BruteForce(measure, minP, 2048)
		tp := func(p int) float64 { return run(p).Throughput }
		out.Rows = append(out.Rows, Table5Row{
			Model:        spec.Name,
			Parallax:     tp(search.BestP),
			Min:          tp(minP),
			Optimal:      tp(brute.BestP),
			ParallaxP:    search.BestP,
			MinP:         minP,
			OptimalP:     brute.BestP,
			ParallaxRuns: search.Runs,
			BruteRuns:    brute.Runs,
		})
	}
	return out
}

// Render formats the result.
func (r Table5Result) Render() string {
	t := metrics.NewTable("Table 5: partitioning methods (throughput, 48 GPUs)",
		"Model", "Parallax", "Min", "Optimal(brute)", "P(prlx/min/opt)", "runs(prlx/brute)")
	for _, row := range r.Rows {
		t.AddRow(row.Model, humanize(row.Parallax), humanize(row.Min), humanize(row.Optimal),
			fmt.Sprintf("%d/%d/%d", row.ParallaxP, row.MinP, row.OptimalP),
			fmt.Sprintf("%d/%d", row.ParallaxRuns, row.BruteRuns))
	}
	t.AddNote("paper: LM 274k/96.5k/260.3k, NMT 204k/124.1k/208k; Parallax <= 5 sampling runs vs > 50 brute-force runs")
	return t.String()
}

// ---------------------------------------------------------------- Table 6

// Table6Row is one sparsity degree.
type Table6Row struct {
	Length         int
	AlphaModel     float64
	Parallax, TFPS float64
	Speedup        float64
	PaperSpeedup   float64
}

// Table6Result reproduces Table 6: Parallax vs TF-PS under varying
// sparsity degrees of the constructed LM.
type Table6Result struct {
	Rows []Table6Row
}

// Table6 runs the sweep.
func Table6(env Env) Table6Result {
	cases := []struct {
		length       int
		alphaModel   float64
		paperSpeedup float64
	}{
		{120, 1.0, 2.04}, {60, 0.52, 2.33}, {30, 0.28, 2.43},
		{15, 0.16, 2.89}, {8, 0.1, 3.02}, {4, 0.07, 3.03}, {1, 0.04, 3.42},
	}
	var out Table6Result
	for _, c := range cases {
		alphaS := models.Table6Alpha(c.alphaModel)
		spec := models.ConstructedLM(alphaS, c.length)
		p := 64
		prlx := env.run(spec, core.ArchHybrid, env.Machines, env.GPUs, p).Throughput
		tfps := env.run(spec, core.ArchNaivePS, env.Machines, env.GPUs, p).Throughput
		out.Rows = append(out.Rows, Table6Row{
			Length:       c.length,
			AlphaModel:   spec.AlphaModel(),
			Parallax:     prlx,
			TFPS:         tfps,
			Speedup:      prlx / tfps,
			PaperSpeedup: c.paperSpeedup,
		})
	}
	return out
}

// Render formats the result.
func (r Table6Result) Render() string {
	t := metrics.NewTable("Table 6: sparsity-degree sweep, constructed LM (48 GPUs)",
		"length", "alpha_model", "Parallax", "TF-PS", "speedup", "paper speedup")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Length),
			fmt.Sprintf("%.2f", row.AlphaModel),
			humanize(row.Parallax), humanize(row.TFPS),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.2fx", row.PaperSpeedup))
	}
	return t.String()
}

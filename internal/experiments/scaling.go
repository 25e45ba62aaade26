package experiments

import (
	"fmt"

	"parallax/internal/core"
	"parallax/internal/metrics"
	"parallax/internal/models"
)

// ---------------------------------------------------------------- Fig. 8

// Figure8Result reproduces Figure 8: throughput of the four models on
// Parallax, TF-PS and Horovod as machines scale 1→8 (6 GPUs each).
type Figure8Result struct {
	Machines []int
	// Tp[model][framework][i] is throughput at Machines[i].
	Tp map[string]map[string][]float64
	// Paper numbers from Figure 8 (throughput in units/s).
	Paper map[string]map[string][]float64
}

// Figure8 runs the sweep.
func Figure8(env Env) Figure8Result {
	out := Figure8Result{
		Machines: []int{1, 2, 4, 8},
		Tp:       map[string]map[string][]float64{},
		Paper: map[string]map[string][]float64{
			"ResNet-50": {
				"TF-PS": {900, 1_800, 3_400, 5_800}, "Horovod": {1_100, 2_100, 4_100, 7_600},
				"Parallax": {1_000, 2_000, 3_900, 7_600}},
			"Inception-v3": {
				"TF-PS": {700, 1_300, 2_100, 3_800}, "Horovod": {800, 1_500, 2_900, 5_900},
				"Parallax": {800, 1_500, 2_900, 5_800}},
			"LM": {
				"TF-PS": {68_600, 118_000, 133_000, 98_900}, "Horovod": {61_800, 47_200, 46_500, 45_500},
				"Parallax": {83_300, 158_000, 253_000, 274_000}},
			"NMT": {
				"TF-PS": {33_000, 60_100, 103_000, 102_000}, "Horovod": {37_500, 47_300, 59_300, 68_300},
				"Parallax": {39_300, 72_100, 132_000, 204_000}},
		},
	}
	frameworks := []struct {
		name string
		arch core.Arch
	}{
		{"TF-PS", core.ArchNaivePS},
		{"Horovod", core.ArchAR},
		{"Parallax", core.ArchHybrid},
	}
	for _, spec := range models.PaperModels() {
		out.Tp[spec.Name] = map[string][]float64{}
		for _, fw := range frameworks {
			var series []float64
			for _, n := range out.Machines {
				p := min(bestPartitions(spec), 16*n) // smaller clusters want fewer partitions
				series = append(series, env.run(spec, fw.arch, n, env.GPUs, p).Throughput)
			}
			out.Tp[spec.Name][fw.name] = series
		}
	}
	return out
}

// Render formats the result.
func (r Figure8Result) Render() string {
	headers := []string{"Model", "Framework"}
	for _, n := range r.Machines {
		headers = append(headers, fmt.Sprintf("%dm", n))
	}
	headers = append(headers, "paper@8m")
	t := metrics.NewTable("Figure 8: throughput vs machines (6 GPUs each)", headers...)
	for _, model := range []string{"ResNet-50", "Inception-v3", "LM", "NMT"} {
		for _, fw := range []string{"TF-PS", "Horovod", "Parallax"} {
			row := []string{model, fw}
			for _, v := range r.Tp[model][fw] {
				row = append(row, humanize(v))
			}
			row = append(row, humanize(r.Paper[model][fw][3]))
			t.AddRow(row...)
		}
	}
	return t.String()
}

// ---------------------------------------------------------------- Fig. 9

// Figure9Result reproduces Figure 9: Parallax's normalized throughput
// (relative to 1 GPU) at 1, 6, 12, 24 and 48 GPUs, with the TF-PS and
// Horovod 48-GPU values from the figure's caption for comparison.
type Figure9Result struct {
	GPUs       []int
	Normalized map[string][]float64 // model -> series (Parallax)
	At48       map[string]map[string]float64
	Paper48    map[string]map[string]float64
}

// Figure9 runs the sweep. Cluster shapes: 1 GPU = 1×1; 6 = 1×6; 12 = 2×6;
// 24 = 4×6; 48 = 8×6, matching the paper's per-machine GPU count.
func Figure9(env Env) Figure9Result {
	shapes := []struct{ machines, gpus int }{
		{1, 1}, {1, 6}, {2, 6}, {4, 6}, {8, 6},
	}
	out := Figure9Result{
		GPUs:       []int{1, 6, 12, 24, 48},
		Normalized: map[string][]float64{},
		At48:       map[string]map[string]float64{},
		Paper48: map[string]map[string]float64{
			"ResNet-50":    {"Parallax": 39.8, "TF-PS": 30.4, "Horovod": 39.8},
			"Inception-v3": {"Parallax": 43.6, "TF-PS": 28.6, "Horovod": 44.4},
			"LM":           {"Parallax": 9.4, "TF-PS": 3.4, "Horovod": 1.6},
			"NMT":          {"Parallax": 18.4, "TF-PS": 9.1, "Horovod": 6.1},
		},
	}
	for _, spec := range models.PaperModels() {
		base := 0.0
		var series []float64
		for _, sh := range shapes {
			p := min(bestPartitions(spec), 16*sh.machines)
			tp := env.run(spec, core.ArchHybrid, sh.machines, sh.gpus, p).Throughput
			if base == 0 {
				base = tp
			}
			series = append(series, metrics.NormalizedThroughput(tp, base))
		}
		out.Normalized[spec.Name] = series

		// Baselines at 48 GPUs normalized by their own 1-GPU throughput.
		out.At48[spec.Name] = map[string]float64{"Parallax": series[len(series)-1]}
		for _, fw := range []struct {
			name string
			arch core.Arch
		}{{"TF-PS", core.ArchNaivePS}, {"Horovod", core.ArchAR}} {
			p := bestPartitions(spec)
			one := env.run(spec, fw.arch, 1, 1, min(p, 16)).Throughput
			full := env.run(spec, fw.arch, 8, 6, p).Throughput
			out.At48[spec.Name][fw.name] = metrics.NormalizedThroughput(full, one)
		}
	}
	return out
}

// Render formats the result.
func (r Figure9Result) Render() string {
	headers := []string{"Model"}
	for _, g := range r.GPUs {
		headers = append(headers, fmt.Sprintf("%dg", g))
	}
	headers = append(headers, "paper@48", "TF-PS@48", "Horovod@48")
	t := metrics.NewTable("Figure 9: normalized throughput (Parallax; baselines at 48 GPUs)", headers...)
	for _, model := range []string{"ResNet-50", "Inception-v3", "LM", "NMT"} {
		row := []string{model}
		for _, v := range r.Normalized[model] {
			row = append(row, fmt.Sprintf("%.1f", v))
		}
		row = append(row,
			fmt.Sprintf("%.1f", r.Paper48[model]["Parallax"]),
			fmt.Sprintf("%.1f (paper %.1f)", r.At48[model]["TF-PS"], r.Paper48[model]["TF-PS"]),
			fmt.Sprintf("%.1f (paper %.1f)", r.At48[model]["Horovod"], r.Paper48[model]["Horovod"]))
		t.AddRow(row...)
	}
	return t.String()
}

// Command parallax-info inspects the paper models and the sparsity-aware
// plan: per-variable sizes, α values, Table 3's network-transfer formulas
// evaluated for the configured cluster, the partition count the paper's
// cost model would pick (with the sampled points and the fitted θ), and
// the per-route shard map of the hybrid plan each model gets.
//
// Usage:
//
//	parallax-info [-model all|resnet50|inception|lm|nmt] [-machines 8] [-gpus 6] [-partitions 128]
//
// With -partitions 0 (the default) the §3.2 sampling search runs over
// the paper model — the discrete-event engine on the paper's hardware
// constants — and the full decision is printed; a positive -partitions
// fixes the count instead. This is a what-if about the paper's cluster,
// not what parallax.Open does: a session measures its own real steps.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"parallax"
	"parallax/internal/buildinfo"
	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/engine"
	"parallax/internal/metrics"
	"parallax/internal/models"
	"parallax/internal/partition"
)

func main() {
	model := flag.String("model", "all", "model: all|resnet50|inception|lm|nmt")
	machines := flag.Int("machines", 8, "machines")
	gpus := flag.Int("gpus", 6, "GPUs per machine")
	partitions := flag.Int("partitions", 0, "sparse partitions (0 = run the §3.2 search over the paper model)")
	compression := flag.String("compression", "none", "wire compression policy to describe: none|f16|bf16|topk[=FRAC]")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	policy, err := parallax.ParseCompression(*compression)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	specs := map[string]*models.Spec{
		"resnet50": models.ResNet50(), "inception": models.InceptionV3(),
		"lm": models.LM(), "nmt": models.NMT(),
	}
	var order []string
	if *model == "all" {
		order = []string{"resnet50", "inception", "lm", "nmt"}
	} else if _, ok := specs[*model]; ok {
		order = []string{*model}
	} else {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}

	hw := cluster.DefaultHardware()
	for _, name := range order {
		spec := specs[name]
		fmt.Printf("== %s ==\n", spec.Name)
		fmt.Printf("dense %.1fM elements, sparse %.1fM elements, alpha_model %.3f\n",
			float64(spec.DenseElements())/1e6, float64(spec.SparseElements())/1e6, spec.AlphaModel())
		fmt.Printf("batch/GPU %d, step compute %.0f ms\n\n",
			spec.BatchPerGPU, (spec.FwdTime+spec.BwdTime)*1000)

		// Partition decision: fixed by flag, or the §3.2 sampling search
		// with the discrete-event engine standing in for the paper's
		// cluster (a session runs the same search against its own measured
		// steps).
		planVars := engine.PlanVars(spec)
		p := *partitions
		var searched *partition.SearchResult
		if p <= 0 {
			maxRows, hasTarget := 1, false
			for _, v := range planVars {
				if v.PartitionTarget {
					hasTarget = true
					if int(v.Rows) > maxRows {
						maxRows = int(v.Rows)
					}
				}
			}
			p = 1
			if hasTarget {
				res, err := partition.Search(func(cand int) float64 {
					r, err := engine.RunArch(spec, core.ArchHybrid, *machines, *gpus, cand, hw)
					if err != nil {
						return 1e9
					}
					return r.StepTime
				}, *machines, partition.Bound(maxRows))
				if err == nil && res.BestP >= 1 {
					p = res.BestP
					searched = &res
				}
			}
		}
		if searched != nil {
			fmt.Print(metrics.FormatPartitionDecision("paper-model what-if", p, searched))
		} else {
			fmt.Print(metrics.FormatPartitionDecision("fixed", p, nil))
		}

		plan, err := core.BuildPlan(planVars, core.Options{
			Arch: core.ArchHybrid, NumMachines: *machines,
			SparsePartitions: p, SmartPlacement: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Transport assignment: each route's traffic runs over the wire
		// fabric exactly when it crosses a machine boundary — an
		// AllReduce chains every machine's lane leaders, PS pushes/pulls
		// reach every machine's server — so on a multi-machine cluster
		// every route is a tcp route (a machine's own ranks and its server
		// still short-circuit over the in-process channel fabric). The
		// AllReduce rows' Table 3 figure is what the runtime moves: the
		// chain puts 2(N−1)·w on the wire in all, which is 4w(N−1)/N per
		// machine on average when each byte counts at both ends.
		n := float64(*machines)
		if *machines > 1 {
			fmt.Printf("transport: tcp across %d agents (inproc within an agent)\n", *machines)
		} else {
			fmt.Println("transport: inproc (single process)")
		}
		fmt.Print(policy.Describe())
		fmt.Printf("%-24s %-7s %-10s %-12s %-14s %-22s\n", "variable", "kind", "alpha", "method", "transport", "Table-3 bytes/machine")
		fmt.Println(strings.Repeat("-", 95))
		for i, v := range spec.Vars {
			a := plan.Assignments[i]
			w := float64(v.Bytes())
			var formula float64
			var wire string
			switch a.Method {
			case core.MethodAllReduce:
				formula = 4 * w * (n - 1) / n
				wire = "collective"
			case core.MethodAllGatherv:
				formula = 2 * v.Alpha * w * (n - 1)
				wire = "collective"
			case core.MethodPS:
				formula = 4 * v.Alpha * w * (n - 1) / n
				wire = "ps"
			}
			if *machines > 1 {
				wire += "/tcp"
			} else {
				wire += "/inproc"
			}
			kind := "dense"
			if v.Sparse {
				kind = "sparse"
			}
			method := a.Method.String()
			if a.Partitions > 1 {
				method = fmt.Sprintf("%s x%d", method, a.Partitions)
			}
			fmt.Printf("%-24s %-7s %-10.4f %-12s %-14s %-22s\n",
				v.Name, kind, v.Alpha, method, wire, metrics.HumanBytes(formula))
		}

		fmt.Printf("\n%s", metrics.FormatShardMap(metrics.ShardRoutes(plan.Assignments)))

		res, err := engine.RunArch(spec, core.ArchHybrid, *machines, *gpus, p, hw)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nsimulated hybrid: %.1f ms/step, %s %s/s, avg %s per machine per step\n\n",
			res.StepTime*1000, metrics.Humanize(res.Throughput), spec.Unit,
			metrics.HumanBytes(res.AvgMachineBytes()))
	}
}

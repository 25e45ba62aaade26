package main

// metric is one reported number: what a run measured, with its unit.
type metric struct {
	Unit string `json:"unit"`
	sample
}

// decl declares a metric the benchmark may report. BENCHMARK.json lists
// the same names, units and directions; a test holds the two together.
type decl struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	bound float64
	// paired, when set, says the metric repeats to the bit for a seed, and
	// is the tighter bound -compare holds it to seed by seed. bound has to
	// stay above the spread between seeds, which the driver sweeps; a
	// change of arithmetic shows within one seed long before that.
	paired float64
	// on reports whether a workload uses the layer the metric measures; a
	// metric is not reported for a workload that never runs it.
	on func(w *workload) bool
}

func all(*workload) bool         { return true }
func onTCP(w *workload) bool     { return w.tcp }
func onPS(w *workload) bool      { return w.ps }
func onF16(w *workload) bool     { return w.f16 }
func onTCPPS(w *workload) bool   { return w.tcp && w.ps }
func onTCPF16(w *workload) bool  { return w.tcp && w.f16 }
func onGuarded(w *workload) bool { return w.guarded }

// endToEndDecls are the metrics a user of the system sees, reported by
// the untraced run of every workload.
var endToEndDecls = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: all},
	{name: "step_ms_p50_best20", unit: "ms", better: "lower", bound: 0.25, on: all},
	{name: "steps_per_s_best20", unit: "1/s", better: "higher", bound: 0.25, on: all},
	{name: "wire_bytes_per_step", unit: "B", better: "lower", bound: 0.02, on: onTCP},
	{name: "loss_final", unit: "nats", better: "lower", bound: 0.05, paired: 0.005, on: all},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15, on: all},
}

// perLayerDecls are the ladder: one or more rungs per module, named
// after the module, reported by the traced run.
var perLayerDecls = []decl{
	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher", on: all},
	{name: "tensor.axpy_gbps", unit: "GB/s", better: "higher", on: all},
	{name: "tensor.addto_gbps", unit: "GB/s", better: "higher", on: all},
	{name: "tensor.sum_sparse_us", unit: "us", better: "lower", on: onPS},
	{name: "tensor.scatter_add_us", unit: "us", better: "lower", on: onPS},
	{name: "tensor.quantize_f16_gbps", unit: "GB/s", better: "higher", on: onF16},

	{name: "graph.exec_step_us", unit: "us", better: "lower", on: all},
	{name: "graph.exec_step_allocs", unit: "count", better: "lower", on: all},
	{name: "graph.stream_first_grad_us", unit: "us", better: "lower", on: all},

	{name: "optim.apply_dense_gbps", unit: "GB/s", better: "higher", on: all},
	{name: "optim.apply_sparse_us", unit: "us", better: "lower", on: onPS},

	{name: "collective.allreduce_us", unit: "us", better: "lower", on: all},
	{name: "collective.allreduce_small_us", unit: "us", better: "lower", on: all},
	{name: "collective.allreduce_f16_us", unit: "us", better: "lower", on: onF16},
	{name: "collective.scalar_exchange_us", unit: "us", better: "lower", on: all},
	{name: "collective.allreduce_allocs", unit: "count", better: "lower", on: all},

	{name: "transport.inproc_rtt_us", unit: "us", better: "lower", on: all},
	{name: "transport.tcp_rtt_us", unit: "us", better: "lower", on: onTCP},
	{name: "transport.dial_ms", unit: "ms", better: "lower", on: onTCP},
	{name: "transport.tcp_f32_mbps", unit: "MB/s", better: "higher", on: onTCP},
	{name: "transport.tcp_sparse_mbps", unit: "MB/s", better: "higher", on: onTCPPS},
	{name: "transport.tcp_ps_mbps", unit: "MB/s", better: "higher", on: onTCPPS},
	{name: "transport.codec_f32_gbps", unit: "GB/s", better: "higher", on: onTCP},
	{name: "transport.tcp_allocs_per_msg", unit: "count", better: "lower", on: onTCP},
	{name: "transport.tcp_f16_mbps", unit: "MB/s", better: "higher", on: onTCPF16},
	{name: "transport.codec_f16_gbps", unit: "GB/s", better: "higher", on: onTCPF16},

	{name: "psrt.push_sparse_us", unit: "us", better: "lower", on: onPS},
	{name: "psrt.pull_many_us", unit: "us", better: "lower", on: onPS},
	{name: "psrt.client_push_sparse_us", unit: "us", better: "lower", on: onTCPPS},
	{name: "psrt.client_pull_many_us", unit: "us", better: "lower", on: onTCPPS},
	{name: "psrt.pull_bytes_per_step", unit: "B", better: "lower", on: onPS},
	{name: "psrt.pull_useful_ratio", unit: "ratio", better: "higher", on: onPS},

	{name: "transform.compute_ms_p50", unit: "ms", better: "lower", on: all},
	{name: "transform.comm_ms_p50", unit: "ms", better: "lower", on: all},
	{name: "transform.syncwait_ms_p50", unit: "ms", better: "lower", on: all},
	{name: "transform.overlap_fraction", unit: "ratio", better: "higher", on: all},
	{name: "transform.step_ms_min", unit: "ms", better: "lower", on: all},
	{name: "transform.step_ms_p50", unit: "ms", better: "lower", on: all},
	{name: "transform.step_ms_p99", unit: "ms", better: "lower", on: all},
	{name: "transform.bytes_pushed_per_step", unit: "B", better: "lower", on: all},
	{name: "transform.allocs_per_step", unit: "count", better: "lower", on: all},
	{name: "transform.alloc_bytes_per_step", unit: "B", better: "lower", on: all},

	{name: "data.feed_us_p50", unit: "us", better: "lower", on: all},

	{name: "session.open_ms", unit: "ms", better: "lower", on: all},
	{name: "session.close_ms", unit: "ms", better: "lower", on: all},
	{name: "session.steps_per_s", unit: "1/s", better: "higher", on: all},
	{name: "session.boundary_us_p50", unit: "us", better: "lower", on: all},
	{name: "session.autosave_stall_ms_p50", unit: "ms", better: "lower", on: onGuarded},
	{name: "session.save_mbps", unit: "MB/s", better: "higher", on: all},
	{name: "session.restore_ms", unit: "ms", better: "lower", on: all},
	{name: "session.repartition_ms", unit: "ms", better: "lower", on: onPS},
	{name: "session.wire_accounting_gap", unit: "ratio", better: "lower", on: onTCP},

	{name: "checkpoint.encode_mbps", unit: "MB/s", better: "higher", on: all},
	{name: "checkpoint.decode_mbps", unit: "MB/s", better: "higher", on: all},
	{name: "checkpoint.shard_bytes", unit: "B", better: "lower", on: all},

	{name: "engine.predicted_step_ms", unit: "ms", better: "lower", on: all},
	{name: "engine.predicted_bytes_per_machine", unit: "B", better: "lower", on: all},
	{name: "engine.predicted_comm_share", unit: "ratio", better: "lower", on: all},
	{name: "engine.wire_model_ratio", unit: "ratio", better: "lower", on: onTCP},

	{name: "trace.overhead_pct", unit: "%", better: "lower", on: all},
	{name: "trace.coverage_pct", unit: "%", better: "higher", on: all},
}

var declByName = func() map[string]*decl {
	m := make(map[string]*decl)
	for _, ds := range [][]decl{endToEndDecls, perLayerDecls} {
		for i := range ds {
			m[ds[i].name] = &ds[i]
		}
	}
	return m
}()

// unitOf panics on an undeclared name: reporting a metric that
// BENCHMARK.json does not list is a bug in the benchmark.
func unitOf(name string) string {
	d, ok := declByName[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	return d.unit
}

// namesFor lists the metrics of decls that a workload reports.
func namesFor(decls []decl, w *workload) []string {
	var out []string
	for _, d := range decls {
		if d.on(w) {
			out = append(out, d.name)
		}
	}
	return out
}

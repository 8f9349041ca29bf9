package main

// metricDef is one named metric: BENCHMARK.json lists the same names,
// units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression; 0 for per-layer
	// metrics, which are evidence and not gates.
	Bound float64
}

// hostMetrics are the end-to-end metrics on the host clock: what the
// simulator costs whoever runs it. They are measured, so they carry noise,
// and the bounds are sized to the ten-seed interquartile spreads seen on
// the 2-core reference host (README, "Bounds"): about three spreads.
var hostMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// virtualMetrics are the end-to-end metrics on the virtual clock: the
// product. They are exact functions of the seed, so a host-only change
// must leave them bit-identical; the bound only absorbs a deliberate model
// change's rounding.
var virtualMetrics = []metricDef{
	{"virt_s", "s", "lower", 0.001},
	{"virt_usd", "usd", "lower", 0.001},
}

func endToEndMetrics() []metricDef {
	return append(append([]metricDef(nil), hostMetrics...), virtualMetrics...)
}

func (res *passResult) value(name string) float64 {
	switch name {
	case "wall_s":
		return res.WallS
	case "cpu_s":
		return res.CPUS
	case "alloc_mb":
		return res.AllocMB
	case "peak_rss_mb":
		return res.PeakRSSMB
	case "setup_s":
		return res.SetupS
	case "virt_s":
		return res.VirtS
	case "virt_usd":
		return res.VirtUSD
	}
	return 0
}

func layerDefs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayerMetrics is every per-layer metric, in report order. The first
// group comes from the workload's traced and observed passes (spans, CPU
// profile, observer registry, the program's own reports) and reads 0 where
// the workload does not enter the layer; the rest come from the layer drivers
// and are the same whichever workload the run names.
var perLayerMetrics = func() []metricDef {
	var d []metricDef
	add := func(m ...metricDef) { d = append(d, m...) }
	add(layerDefs("s", "lower", "virt_s")...)
	add(layerDefs("usd", "lower", "virt_usd")...)
	for _, m := range profiledModules {
		add(metricDef{Name: m + ".cpu_frac", Unit: "frac", Better: "lower"})
	}
	add(layerDefs("s", "lower", "core.run_self_s", "core.p1_job_s", "rd.run_s", "nse.run_s")...)
	add(layerDefs("count", "lower", "core.jobs", "rd.solve_iters", "nse.vel_iters", "nse.pres_iters")...)
	add(layerDefs("abs_err", "lower", "rd.max_err", "nse.vel_max_err")...)
	add(layerDefs("count", "lower", "mp.msgs", "mp.msg_bytes", "mp.mailbox_highwater",
		"sparse.halo_bytes", "sparse.halo_exchanges", "obs.events", "obs.journal_bytes")...)
	add(layerDefs("frac", "lower", "mp.virt_comm_frac", "obs.on_wall_frac", "obs.on_alloc_frac")...)
	add(layerDefs("s", "lower", "bench.restart_host_s", "bench.migrate_host_s", "bench.clean_host_s", "bench.wasted_virt_s")...)
	add(layerDefs("x", "lower", "bench.host_overhead_x")...)
	add(layerDefs("count", "lower", "bench.attempts", "bench.decisions")...)
	add(layerDefs("frac", "higher", "bench.useful_virt_frac_restart", "bench.useful_virt_frac_migrate")...)

	add(layerDefs("ns", "lower", "mp.sendrecv_ns", "netmodel.p2p_ns", "vclock.charge_ns")...)
	add(layerDefs("us", "lower", "mp.allreduce_us_p8", "mp.allreduce_us_p64", "mp.allreduce_us_p512",
		"mp.barrier_us_p512", "mp.world_spawn_us_per_rank")...)
	add(layerDefs("ns/nnz", "lower", "sparse.build_ns_per_nnz", "sparse.refill_ns_per_nnz",
		"sparse.spmv_ns_per_nnz", "sparse.spmv_big_ns_per_nnz",
		"krylov.ilu0_setup_ns_per_nnz", "krylov.ilu0_apply_ns_per_nnz")...)
	add(layerDefs("us", "lower", "sparse.apply_us_p27", "sparse.halo_us_p27", "sparse.halo_us_p1000")...)
	add(layerDefs("us/iter", "lower", "krylov.cg_us_per_iter", "krylov.gmres_us_per_iter", "krylov.bicgstab_us_per_iter")...)
	add(layerDefs("frac", "lower", "krylov.cg_self_frac")...)
	add(layerDefs("count", "lower", "krylov.cg_iters", "krylov.steady_allocs")...)
	add(layerDefs("us", "lower", "fem.space_build_us_per_rank")...)
	add(layerDefs("ns/elem", "lower", "fem.assemble_ns_per_elem", "fem.reassemble_ns_per_elem",
		"fem.vector_ns_per_elem", "mesh.build_ns_per_elem")...)
	add(layerDefs("ns/byte", "lower", "checkpoint.write_ns_per_byte", "checkpoint.read_ns_per_byte")...)
	add(layerDefs("us", "lower", "checkpoint.mirror_us_p64")...)
	add(layerDefs("count", "lower", "checkpoint.bytes_per_rank")...)
	add(layerDefs("ns/event", "lower", "obs.append_ns_per_event", "obs.write_journal_ns_per_event")...)
	add(layerDefs("ns/line", "lower", "obs.parse_ns_per_line", "triage.diff_same_ns_per_line")...)
	add(layerDefs("us", "lower", "triage.diff_div_us")...)
	return d
}()

package main

// The metric catalogue. BENCHMARK.json lists the same names and units
// (the self-test pins the two together); this table also records, for
// each per-layer metric, which end-to-end metric it should move and on
// which workload, and for each workload which layers do most and least
// of its work.

type metricDoc struct {
	name, unit, better string
	// moves names the end-to-end metric and workload the metric should
	// move (per-layer), or what it measures on each workload
	// (end-to-end).
	moves string
}

// workloadDoc records why a workload was chosen.
type workloadDoc struct {
	name, why, most, least string
}

var workloads = []workloadDoc{
	{
		name: "eval-sweep",
		why: "one pass over every grid dsmbench -all regenerates (Table 1, Figures 1-3, protocols, " +
			"networks, placements): the user's regenerate-the-paper cost",
		most:  "apps kernels and sequential references, mem diffs, instrument, aggregate (Dyn cells), harness/sweep, trace derivation",
		least: "vc and lrc (8 processors only), expsvc",
	},
	{
		name: "scale-storm",
		why: "harness.RunScaling on Storm/large, homeless and home on the bus at 256 and 1024 procs, " +
			"sparse/tree: constant work per processor, so host time is engine scaling cost",
		most:  "vc sparse stamps, lrc publish log, tree barriers, bus pricing under simnet's lock, runtime goroutine hand-off",
		least: "apps kernels, instrument, trace",
	},
	{
		name: "dsmd-mixed",
		why: "open-loop POST /v1/run into an in-process dsmd: Zipf mix of network sweeps over about 2x the " +
			"cache's specs at a steady rate, then a rate search; hits, miss fills, evictions, captures and " +
			"derivations run side by side. Its end-to-end latencies come from closed-loop probes between short " +
			"steady phases: measured under the load they varied by 25-75% between runs on a shared 2-vCPU host",
		most:  "expsvc (resolve, hash, cache, coalescing, derived serving), tmk engine runs on misses, trace capture and Derive",
		least: "harness grids, vc and lrc at scale",
	},
}

var endToEnd = []metricDoc{
	{"setup_s", "s", "lower", "process start to the first timed operation: package init and registry, workload construction; for dsmd-mixed also the warm-up that fills the sequential-reference memos, the result cache and the trace store"},
	{"wall_s", "s", "lower", "eval-sweep, scale-storm: host time for the fixed grid; dsmd-mixed: host time of the closed-loop service probe's fixed request list"},
	{"peak_rss_mb", "MB", "lower", "ru_maxrss of the workload's process"},
	{"hit_p50_ms", "ms", "lower", "Dsm-Cache: hit latency of the closed-loop service probe (one request at a time, fresh server) in the workload's process: twice after the grid of eval-sweep and scale-storm, five times between dsmd-mixed's short steady phases; each probe's percentile, averaged over the run's probes"},
	{"miss_p50_ms", "ms", "lower", "Dsm-Cache: miss latency, measured as hit_p50_ms"},
	{"miss_p90_ms", "ms", "lower", "as miss_p50_ms"},
	{"derived_p50_ms", "ms", "lower", "Dsm-Cache: derived latency, measured as hit_p50_ms"},
	{"derived_p90_ms", "ms", "lower", "as derived_p50_ms"},
}

var perLayer = []metricDoc{
	{"apps.check_s", "s", "lower", "wall_s @ eval-sweep (Workload.Check, including the memoized sequential reference)"},
	{"apps.compute_s", "s", "lower", "wall_s @ eval-sweep (TSP dfs, Barnes); ~0 @ scale-storm"},
	{"tmk.newsystem_s", "s", "lower", "wall_s @ scale-storm; miss_p50_ms (all)"},
	{"tmk.run_s", "s", "lower", "wall_s @ eval-sweep and scale-storm; miss_p50_ms (all)"},
	{"tmk.host_ns_per_msg", "ns", "lower", "wall_s @ eval-sweep and scale-storm; miss_p50_ms (all)"},
	{"tmk.fault_s", "s", "lower", "wall_s @ eval-sweep"},
	{"tmk.faults", "count", "lower", "wall_s @ eval-sweep"},
	{"tmk.barrier_s", "s", "lower", "wall_s @ scale-storm"},
	{"tmk.barriers", "count", "lower", "wall_s @ scale-storm"},
	{"tmk.lock_s", "s", "lower", "wall_s @ eval-sweep (Water, TSP)"},
	{"tmk.lock_acquires", "count", "lower", "wall_s @ eval-sweep (Water, TSP)"},
	{"tmk.twins", "count", "lower", "wall_s @ eval-sweep"},
	{"tmk.diffs", "count", "lower", "wall_s @ eval-sweep"},
	{"tmk.sched_spread_msgs", "count", "lower", "none yet: shows the known lock-order defect (TSP, Water)"},
	{"aggregate.dyn_run_s", "s", "lower", "wall_s @ eval-sweep"},
	{"instrument.collect_s", "s", "lower", "wall_s @ eval-sweep"},
	{"mem.encode_ns_per_page", "ns", "lower", "wall_s @ eval-sweep"},
	{"mem.apply_ns_per_page", "ns", "lower", "wall_s @ eval-sweep"},
	{"vc.merge_ns.n1024", "ns", "lower", "wall_s @ scale-storm; none @ eval-sweep"},
	{"vc.covers_ns.n1024", "ns", "lower", "wall_s @ scale-storm; none @ eval-sweep"},
	{"lrc.delta_ns.n1024", "ns", "lower", "wall_s @ scale-storm; none @ eval-sweep"},
	{"netmodel.exchange_ns.ideal", "ns", "lower", "wall_s @ scale-storm; derived_p50_ms (all)"},
	{"netmodel.exchange_ns.bus", "ns", "lower", "wall_s @ scale-storm; derived_p50_ms (all)"},
	{"netmodel.exchange_ns.switch", "ns", "lower", "wall_s @ scale-storm; derived_p50_ms (all)"},
	{"trace.capture_s", "s", "lower", "miss_p50_ms (all); mixed.miss_p50_ms @ dsmd-mixed; wall_s @ eval-sweep"},
	{"trace.derive_s", "s", "lower", "derived_p50_ms (all); wall_s @ eval-sweep"},
	{"trace.derive_ns_per_event", "ns", "lower", "derived_p50_ms (all); wall_s @ eval-sweep"},
	{"trace.derive_fail_frac", "ratio", "lower", "derived_p50_ms (all); wall_s @ eval-sweep"},
	{"harness.derived_frac", "ratio", "higher", "wall_s @ eval-sweep"},
	{"expsvc.resolve_us", "us", "lower", "hit_p50_ms, hit_p99_ms (all); mixed.hit_p50_ms @ dsmd-mixed"},
	{"expsvc.hit_ratio", "ratio", "higher", "mixed.miss_p90_ms, max_rps @ dsmd-mixed"},
	{"expsvc.coalesced", "count", "higher", "mixed.miss_p90_ms, max_rps @ dsmd-mixed"},
	{"expsvc.derived", "count", "higher", "mixed.miss_p90_ms, max_rps @ dsmd-mixed"},
	{"expsvc.evictions", "count", "lower", "mixed.miss_p90_ms, max_rps @ dsmd-mixed"},
	{"expsvc.engine_runs", "count", "lower", "mixed.miss_p90_ms, max_rps @ dsmd-mixed"},
	{"expsvc.run_ms", "ms", "lower", "miss_p50_ms (all); mixed.miss_p90_ms, max_rps @ dsmd-mixed"},
	{"expsvc.miss_wait_ms", "ms", "lower", "mixed.miss_p90_ms, max_rps @ dsmd-mixed (mixed.miss_p50_ms - expsvc.run_ms)"},
	{"runtime.cpu_util", "ratio", "higher", "wall_s, peak_rss_mb (all)"},
	{"runtime.alloc_mb", "MB", "lower", "wall_s, peak_rss_mb (all)"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "wall_s, peak_rss_mb (all)"},
	{"max_rps", "1/s", "higher", "dsmd-mixed: highest request rate whose p99 stays under the latency limit without a growing backlog (searched in stepped rates after the steady phase)"},
	{"mixed.hit_p50_ms", "ms", "lower", "dsmd-mixed: hit latency under the steady open-loop mixed load"},
	{"mixed.hit_p99_ms", "ms", "lower", "dsmd-mixed: as mixed.hit_p50_ms"},
	{"mixed.miss_p50_ms", "ms", "lower", "dsmd-mixed: miss latency under the steady open-loop mixed load"},
	{"mixed.miss_p90_ms", "ms", "lower", "dsmd-mixed: as mixed.miss_p50_ms"},
	{"mixed.derived_p50_ms", "ms", "lower", "dsmd-mixed: derived latency under the steady open-loop mixed load"},
	{"mixed.derived_p90_ms", "ms", "lower", "dsmd-mixed: as mixed.derived_p50_ms"},
	{"hit_p99_ms", "ms", "lower", "validity only: p99 of the untraced service probes' hits, averaged over the probes; the slowest 1% of 40 us requests are those the hypervisor preempted, so it followed the host's CPU steal (0.069 to 0.11 ms from 0.5% to 9.5% steal), beyond any end-to-end bound"},
	{"loadgen.lag_p99_ms", "ms", "lower", "validity only: how late the dsmd-mixed generator sent requests"},
	{"trace_overhead_frac", "ratio", "lower", "validity only: traced wall / untraced wall - 1"},
	{"fail_frac", "ratio", "lower", "failed / attempted operations; also the result's failed and attempted fields"},
}

// Command dsmbench regenerates the paper's evaluation: Table 1 and
// Figures 1–3, plus the §5.1 platform-calibration microbenchmarks.
//
// Usage:
//
//	dsmbench -all            # everything (what EXPERIMENTS.md records)
//	dsmbench -all -json      # the same, as one machine-readable document
//	dsmbench -table 1        # sequential times and 8-processor speedups
//	dsmbench -figure 1       # Barnes/Ilink/TSP/Water breakdowns
//	dsmbench -figure 2       # size-sensitive apps
//	dsmbench -figure 3       # false-sharing signatures at 4K and 16K
//	dsmbench -micro          # simulated platform costs vs the paper's
//	dsmbench -protocols      # homeless vs home-based LRC, per application
//	dsmbench -networks       # network sensitivity: every app across every interconnect model
//	dsmbench -placements     # home placement: every app × placement policy × {home, adaptive}, ideal + bus
//	dsmbench -all -protocol home   # regenerate everything on home-based LRC
//	dsmbench -all -network switch  # regenerate everything on the contended switch model
//	dsmbench -all -placement firsttouch  # regenerate everything with first-writer homes
//	dsmbench -baseline -json       # perf-trajectory seed: every app's small dataset
//	dsmbench -check-baseline BENCH_baseline.json  # regression gate: exit non-zero on >2% time drift
//	dsmbench -scaling -json        # 8→1024-proc wall-clock curves: dense/central vs sparse/tree
//	dsmbench -check-scaling BENCH_scaling.json    # scaling gate: the sparse win must still reproduce
//
// Every cell is verified against the application's sequential reference
// before its numbers are printed. With -json the text tables are
// replaced by a single JSON document (the §5.1 calibration table is
// text-only and skipped).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	_ "repro/internal/expsvc"   // canonical cell keys for sweep dedup
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/prof"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// document is the -json output: only the requested sections are set.
type document struct {
	Table1     []harness.Table1RowJSON           `json:"table1,omitempty"`
	Figure1    []harness.ExperimentJSON          `json:"figure1,omitempty"`
	Figure2    []harness.ExperimentJSON          `json:"figure2,omitempty"`
	Figure3    []harness.ExperimentJSON          `json:"figure3,omitempty"`
	Protocols  []harness.ProtocolComparisonJSON  `json:"protocols,omitempty"`
	Networks   []harness.NetworkComparisonJSON   `json:"networks,omitempty"`
	Placements []harness.PlacementComparisonJSON `json:"placements,omitempty"`
	Baseline   []harness.CellJSON                `json:"baseline,omitempty"`
	Perf       *perfJSON                         `json:"perf,omitempty"`
	// Scaling carries the -scaling sweep: per-protocol × per-network
	// wall-clock curves at n ∈ {8, 64, 256, 1024} for the dense/central
	// reference vs the sparse/tree configuration, plus the GOMAXPROCS
	// the generating host ran with (wall ratios are host-independent;
	// absolute wall seconds are not).
	Scaling           []harness.ScalingCurveJSON `json:"scaling,omitempty"`
	ScalingGOMAXPROCS int                        `json:"scaling_gomaxprocs,omitempty"`
}

// perfJSON records how long the -networks sweep took on the machine that
// generated the document, normalized by a fixed single-core calibration
// loop so the number is comparable across hosts. The committed
// BENCH_before.json / BENCH_after.json pair carries the before/after
// wall-clock claim; -check-baseline gates on networks_norm.
type perfJSON struct {
	NetworksWallSeconds float64 `json:"networks_wall_seconds"`
	CalibSeconds        float64 `json:"calib_seconds"`
	NetworksNorm        float64 `json:"networks_norm"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
}

func main() {
	table := flag.Int("table", 0, "regenerate Table N (1)")
	figure := flag.Int("figure", 0, "regenerate Figure N (1, 2, or 3)")
	micro := flag.Bool("micro", false, "print the §5.1 platform calibration (text only)")
	protocols := flag.Bool("protocols", false, "compare coherence protocols per application (4 KB units)")
	networks := flag.Bool("networks", false, "network sensitivity: every application across every registered interconnect model")
	realNetworks := flag.Bool("real-networks", false,
		"force every -networks cell through the engine (disable replay-derived cells)")
	checkSpeedup := flag.String("check-speedup", "",
		"run the replay-derived -networks sweep and fail unless it beats the committed engine-only FILE (BENCH_before.json) by the speedup floor")
	placements := flag.Bool("placements", false, "home placement: every application across every placement policy for the home and adaptive protocols, on ideal and bus")
	baseline := flag.Bool("baseline", false, "perf-trajectory seed: every application's small dataset under the default configuration")
	checkBaseline := flag.String("check-baseline", "",
		"diff the current -baseline run against the committed FILE and exit non-zero on >2% time regression")
	scaling := flag.Bool("scaling", false,
		"scaling sweep: jacobi/large wall-clock curves at 8–1024 procs, dense/central vs sparse/tree, per protocol × network")
	checkScaling := flag.String("check-scaling", "",
		"validate the committed scaling FILE's ≥5× claim and re-run its best 256-proc cell; exit non-zero if the sparse win is gone")
	protocol := flag.String("protocol", tmk.DefaultProtocol,
		"coherence protocol for tables/figures: "+strings.Join(tmk.ProtocolNames(), " or "))
	network := flag.String("network", netmodel.Default,
		"interconnect timing model for tables/figures: "+strings.Join(netmodel.Names(), ", "))
	placement := flag.String("placement", tmk.DefaultPlacement,
		"home-placement policy for tables/figures: "+strings.Join(tmk.PlacementNames(), ", "))
	all := flag.Bool("all", false, "regenerate everything")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document")
	traceOut := flag.String("trace", "", "with -baseline: capture a JSONL trace of the suite's runs to FILE (one run id per app)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to FILE at exit")
	flag.Parse()

	// The sweeps are batch jobs with a small live heap (one cell per
	// worker) and heavy short-lived allocation (twins, diffs, page
	// materialization — ~0.5 GB churn per -networks sweep), so the
	// default GOGC=100 spends a sizable slice of wall clock collecting
	// a heap that is mostly garbage. Trade headroom for wall time
	// unless the operator chose a setting.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		check(err)
	}
	defer stopProf()

	if *checkBaseline != "" {
		code := runCheckBaseline(*checkBaseline)
		stopProf()
		os.Exit(code)
	}
	if *checkScaling != "" {
		code := runCheckScaling(*checkScaling)
		stopProf()
		os.Exit(code)
	}
	if *checkSpeedup != "" {
		code := runCheckSpeedup(*checkSpeedup)
		stopProf()
		os.Exit(code)
	}
	if *realNetworks {
		harness.SetNetworkDerivation(false)
	}
	if !*all && *table == 0 && *figure == 0 && !*micro && !*protocols && !*networks && !*placements && !*baseline && !*scaling {
		flag.Usage()
		os.Exit(2)
	}
	if !tmk.KnownProtocol(*protocol) {
		check(fmt.Errorf("unknown protocol %q (known: %s)",
			*protocol, strings.Join(tmk.ProtocolNames(), ", ")))
	}
	if !netmodel.Known(*network) {
		check(fmt.Errorf("unknown network model %q (known: %s)",
			*network, strings.Join(netmodel.Names(), ", ")))
	}
	if !tmk.KnownPlacement(*placement) {
		check(fmt.Errorf("unknown placement %q (known: %s)",
			*placement, strings.Join(tmk.PlacementNames(), ", ")))
	}
	if *table != 0 && *table != 1 {
		check(fmt.Errorf("unknown table %d (only Table 1 exists)", *table))
	}
	if *traceOut != "" && !*baseline {
		// The sweeps run cells concurrently on the shared scheduler;
		// only the sequential baseline suite produces a clean capture.
		check(fmt.Errorf("-trace requires -baseline"))
	}
	if *figure < 0 || *figure > 3 {
		check(fmt.Errorf("unknown figure %d (want 1, 2, or 3)", *figure))
	}
	var doc document
	text := !*jsonOut

	if *micro || *all {
		if text {
			fmt.Println("=== §5.1 platform calibration ===")
			harness.RenderMicro(os.Stdout)
			fmt.Println()
		} else if *micro {
			fmt.Fprintln(os.Stderr, "dsmbench: the §5.1 calibration table is text-only; omitted from -json output")
		}
	}
	if *table == 1 || *all {
		rows, err := harness.RunTable1(harness.Table1(), *protocol, *network, *placement)
		check(err)
		if text {
			fmt.Println("=== Table 1: datasets, sequential (simulated) time, 8-processor speedup at 4 KB ===")
			harness.RenderTable1(os.Stdout, rows)
			fmt.Println()
		} else {
			for _, r := range rows {
				doc.Table1 = append(doc.Table1, harness.Table1RowJSON{
					App:        r.App,
					Dataset:    r.Dataset,
					SeqSeconds: r.SeqTime.Seconds(),
					ParSeconds: r.ParTime.Seconds(),
					Speedup:    r.Speedup,
				})
			}
		}
	}
	figures := []struct {
		n      int
		title  string
		es     []harness.Experiment
		labels []string
		render func(io.Writer, harness.Experiment, map[string]harness.Cell)
		doc    *[]harness.ExperimentJSON
	}{
		{1, "Figure 1: execution time, messages, data (normalized to 4 KB)",
			harness.Figure1(), configLabels(), harness.RenderFigure, &doc.Figure1},
		{2, "Figure 2: size-sensitive applications (normalized to 4 KB)",
			harness.Figure2(), configLabels(), harness.RenderFigure, &doc.Figure2},
		{3, "Figure 3: false-sharing signatures (4 KB vs 16 KB)",
			harness.Figure3(), []string{"4K", "16K"}, harness.RenderSignature, &doc.Figure3},
	}
	for _, f := range figures {
		if *figure != f.n && !*all {
			continue
		}
		cells, err := harness.RunFigure(f.es, f.labels, *protocol, *network, *placement)
		check(err)
		if text {
			fmt.Printf("=== %s ===\n", f.title)
		}
		for i, e := range f.es {
			if text {
				f.render(os.Stdout, e, cells[i])
				continue
			}
			ej := harness.ExperimentJSON{App: e.App, Dataset: e.Dataset, Paper: e.Paper}
			for _, label := range f.labels {
				c, _ := harness.ConfigByLabel(label)
				c.Protocol, c.Network, c.Placement = *protocol, *network, *placement
				ej.Cells = append(ej.Cells, harness.CellReport(e, c, harness.Procs, cells[i][label]))
			}
			*f.doc = append(*f.doc, ej)
		}
	}
	if *protocols || *all {
		pcs, err := harness.RunProtocolComparison(harness.Table1(), harness.Procs)
		check(err)
		if text {
			fmt.Println("=== Protocol comparison: homeless vs home-based LRC (4 KB units) ===")
			harness.RenderProtocolComparison(os.Stdout, pcs)
			fmt.Println()
		} else {
			for _, pc := range pcs {
				doc.Protocols = append(doc.Protocols, harness.ProtocolComparisonReport(pc))
			}
		}
	}
	if *networks || *all {
		sweepStart := time.Now()
		ncs, err := harness.RunNetworkComparison(harness.Table1(), harness.Procs, nil)
		wall := time.Since(sweepStart).Seconds()
		check(err)
		calib := hostCalibration()
		doc.Perf = &perfJSON{
			NetworksWallSeconds: wall,
			CalibSeconds:        calib,
			NetworksNorm:        wall / calib,
			GOMAXPROCS:          runtime.GOMAXPROCS(0),
		}
		if text {
			fmt.Println("=== Network sensitivity: the protocol and aggregation trades per interconnect ===")
			harness.RenderNetworkComparison(os.Stdout, ncs)
			fmt.Printf("(sweep wall clock %.2fs, host-normalized %.1f, GOMAXPROCS %d)\n\n",
				doc.Perf.NetworksWallSeconds, doc.Perf.NetworksNorm, doc.Perf.GOMAXPROCS)
		} else {
			for _, nc := range ncs {
				doc.Networks = append(doc.Networks, harness.NetworkComparisonReport(nc))
			}
		}
	}
	if *placements || *all {
		pcs, err := harness.RunPlacementComparison(harness.Table1(), harness.Procs, nil, nil)
		check(err)
		if text {
			fmt.Println("=== Home placement: rr vs block vs firsttouch vs migrate (4 KB units, home & adaptive) ===")
			harness.RenderPlacementComparison(os.Stdout, pcs)
			fmt.Println()
		} else {
			for _, pc := range pcs {
				doc.Placements = append(doc.Placements, harness.PlacementComparisonReport(pc))
			}
		}
	}
	if *scaling {
		// Deliberately not part of -all: the dense 1024-proc cells take
		// tens of seconds each by design — that cost is the datum.
		e, err := scalingExperiment()
		check(err)
		curves, err := harness.RunScaling(e, nil, nil, nil, nil)
		check(err)
		if text {
			fmt.Println("=== Scaling: dense/central reference vs sparse/tree at 8–1024 procs ===")
			harness.RenderScaling(os.Stdout, curves)
			proto, network, speedup := bestScalingCell(curves, scalingCheckProcs)
			fmt.Printf("best %d-proc wall-clock speedup: %.1f× (%s × %s)\n\n",
				scalingCheckProcs, speedup, proto, network)
		} else {
			for _, c := range curves {
				doc.Scaling = append(doc.Scaling, harness.ScalingReport(c))
			}
			doc.ScalingGOMAXPROCS = runtime.GOMAXPROCS(0)
		}
	}
	if *baseline {
		var tw *trace.Writer
		var traceFile *os.File
		var traceBuf *bufio.Writer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			check(err)
			traceFile = f
			traceBuf = bufio.NewWriter(f)
			tw = trace.NewWriter(traceBuf)
		}
		cells, err := runBaseline(tw)
		check(err)
		if tw != nil {
			check(tw.Close())
			check(traceBuf.Flush())
			check(traceFile.Close())
		}
		if text {
			fmt.Println("=== Baseline: small datasets, 4 KB units, homeless, ideal network ===")
			fmt.Printf("%-8s  %-8s  %9s  %10s  %12s\n",
				"Program", "Dataset", "Time(s)", "Msgs", "Bytes")
			for _, c := range cells {
				fmt.Printf("%-8s  %-8s  %9.3f  %10d  %12d\n",
					c.App, c.Dataset, c.TimeSeconds, c.Messages, c.Bytes)
			}
			fmt.Println()
		} else {
			doc.Baseline = cells
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(doc))
	}
}

// runBaseline runs every registered application's "small" dataset under
// the default configuration (4 KB units, homeless, ideal network) —
// the comparison point future performance work measures against. A
// non-nil tw captures every run into one trace stream (the suite is
// sequential, so the per-app label is race-free).
func runBaseline(tw *trace.Writer) ([]harness.CellJSON, error) {
	var out []harness.CellJSON
	for _, app := range apps.Apps() {
		e, ok := apps.Lookup(app, "small")
		if !ok {
			return nil, fmt.Errorf("%s has no small dataset", app)
		}
		cfg := tmk.Config{Procs: harness.Procs, UnitPages: 1}
		if tw != nil {
			tw.SetLabel(e.App, e.Dataset)
			cfg.Trace = tw
		}
		res, err := apps.Run(e.Make(harness.Procs), cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/small: %w", app, err)
		}
		exp := harness.Experiment{App: e.App, Dataset: e.Dataset, Paper: e.Paper}
		cell := harness.Cell{Time: res.Time, Queue: res.QueueDelay, Msgs: res.Messages, Bytes: res.Bytes}
		out = append(out, harness.CellReport(exp, harness.Config{Label: "4K", Unit: 1}, harness.Procs, cell))
	}
	return out, nil
}

// regressionTolerance is the relative simulated-time drift -check-baseline
// tolerates. The baseline runs on the deterministic ideal network, so any
// drift is a real engine change; 2% gives refactors that legitimately move
// a rounding edge a little room while catching performance regressions.
const regressionTolerance = 0.02

// wallTolerance is the relative host-normalized wall-clock slowdown the
// -networks sweep may show against the committed BENCH_after.json before
// -check-baseline fails. Wall clock is noisy in ways simulated time is
// not (CI neighbors, turbo states), so the gate is deliberately loose:
// 25% catches a lost optimization, not scheduler jitter.
const wallTolerance = 0.25

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// hostCalibration times a fixed single-core integer loop and returns the
// best of three runs in seconds. Dividing a measured wall clock by this
// number yields a host-independent figure: the same engine on a machine
// with cores twice as fast produces (roughly) the same networks_norm.
// Single-threaded on purpose — the sweep's per-cell work is also
// single-threaded, and core count is reported separately as GOMAXPROCS.
func hostCalibration() float64 {
	const iters = 1 << 27
	best := 0.0
	for run := 0; run < 3; run++ {
		acc := uint64(0x9e3779b97f4a7c15) + calibSink
		start := time.Now()
		for i := 0; i < iters; i++ {
			acc ^= acc << 13
			acc ^= acc >> 7
			acc ^= acc << 17
		}
		elapsed := time.Since(start).Seconds()
		calibSink = acc
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}

// speedupFloor is the minimum host-normalized wall-clock speedup the
// replay-derived -networks sweep must show over the committed
// engine-only artifact (BENCH_before.json): the derivation replaces
// five of six engine executions per base cell, so well over 3x is
// expected for the replay-safe majority of the suite even with the
// schedule-sensitive apps (TSP, Water) still running every cell.
const speedupFloor = 3.0

// runCheckSpeedup runs the -networks sweep with derivation on and
// compares its host-normalized wall clock against the committed
// engine-only artifact's perf section, returning the process exit
// code: 0 when the speedup is at least speedupFloor.
func runCheckSpeedup(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench: -check-speedup:", err)
		return 1
	}
	var before document
	if err := json.Unmarshal(raw, &before); err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: -check-speedup: parsing %s: %v\n", path, err)
		return 1
	}
	if before.Perf == nil || before.Perf.NetworksNorm <= 0 {
		fmt.Fprintf(os.Stderr, "dsmbench: -check-speedup: %s has no networks perf section (regenerate with 'dsmbench -real-networks -networks -json')\n", path)
		return 1
	}
	// Best of two trials: a single sweep on a small CI host carries
	// ±10% scheduler and GC noise, and the committed before-number is
	// itself a best-of-N — compare like with like.
	wall := 0.0
	for trial := 0; trial < 2; trial++ {
		start := time.Now()
		if _, err := harness.RunNetworkComparison(harness.Table1(), harness.Procs, nil); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			return 1
		}
		if w := time.Since(start).Seconds(); trial == 0 || w < wall {
			wall = w
		}
	}
	calib := hostCalibration()
	norm := wall / calib
	speedup := before.Perf.NetworksNorm / norm
	verdict := "ok"
	if speedup < speedupFloor {
		verdict = "TOO SLOW"
	}
	fmt.Printf("derived networks sweep: %.2fs wall (calib %.3fs, norm %.1f) vs engine-only norm %.1f — %.1fx speedup (floor %.1fx)  %s\n",
		wall, calib, norm, before.Perf.NetworksNorm, speedup, speedupFloor, verdict)
	if speedup < speedupFloor {
		return 1
	}
	return 0
}

// runCheckBaseline re-runs the baseline suite and diffs it against the
// committed baseline file, returning the process exit code: 0 when every
// application's simulated time is within the tolerance, 1 on regression,
// missing entries, or an unreadable file. Message and byte drifts are
// reported but only time gates — it is the paper's headline metric, and
// intentional protocol work legitimately trades messages for bytes.
func runCheckBaseline(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench: -check-baseline:", err)
		return 1
	}
	var committed document
	if err := json.Unmarshal(raw, &committed); err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: -check-baseline: parsing %s: %v\n", path, err)
		return 1
	}
	if len(committed.Baseline) == 0 {
		fmt.Fprintf(os.Stderr, "dsmbench: -check-baseline: %s has no baseline section (regenerate with 'make bench')\n", path)
		return 1
	}
	current, err := runBaseline(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		return 1
	}

	key := func(c harness.CellJSON) string { return c.App + "/" + c.Dataset }
	committedBy := make(map[string]harness.CellJSON, len(committed.Baseline))
	for _, c := range committed.Baseline {
		committedBy[key(c)] = c
	}

	fmt.Printf("%-8s  %-8s  %12s  %12s  %8s  %s\n",
		"Program", "Dataset", "base(s)", "now(s)", "Δtime", "verdict")
	failed := false
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[key(cur)] = true
		base, ok := committedBy[key(cur)]
		if !ok {
			fmt.Printf("%-8s  %-8s  %12s  %12.6f  %8s  new app — refresh the baseline with 'make bench'\n",
				cur.App, cur.Dataset, "-", cur.TimeSeconds, "-")
			failed = true
			continue
		}
		if base.TimeSeconds <= 0 {
			fmt.Printf("%-8s  %-8s  %12.6f  %12.6f  %8s  corrupt baseline entry (time %v) — regenerate with 'make bench'\n",
				cur.App, cur.Dataset, base.TimeSeconds, cur.TimeSeconds, "-", base.TimeSeconds)
			failed = true
			continue
		}
		delta := cur.TimeSeconds/base.TimeSeconds - 1
		verdict := "ok"
		if delta > regressionTolerance {
			verdict = "REGRESSION"
			failed = true
		} else if delta < -regressionTolerance {
			verdict = "improved — refresh the baseline with 'make bench'"
		}
		note := ""
		if cur.Messages != base.Messages || cur.Bytes != base.Bytes {
			note = fmt.Sprintf("  (msgs %+d, bytes %+d)", cur.Messages-base.Messages, cur.Bytes-base.Bytes)
		}
		fmt.Printf("%-8s  %-8s  %12.6f  %12.6f  %+7.2f%%  %s%s\n",
			cur.App, cur.Dataset, base.TimeSeconds, cur.TimeSeconds, 100*delta, verdict, note)
	}
	for _, c := range committed.Baseline {
		if !seen[key(c)] {
			fmt.Printf("%-8s  %-8s  %12.6f  %12s  %8s  missing from current run\n",
				c.App, c.Dataset, c.TimeSeconds, "-", "-")
			failed = true
		}
	}

	// Wall-clock gate: when the committed file carries a perf section
	// (BENCH_after.json does; the original BENCH_baseline.json does not),
	// re-run the -networks sweep and compare host-normalized wall time.
	if committed.Perf != nil && committed.Perf.NetworksNorm > 0 {
		start := time.Now()
		if _, err := harness.RunNetworkComparison(harness.Table1(), harness.Procs, nil); err != nil {
			fmt.Fprintln(os.Stderr, "dsmbench:", err)
			return 1
		}
		wall := time.Since(start).Seconds()
		calib := hostCalibration()
		norm := wall / calib
		slow := norm/committed.Perf.NetworksNorm - 1
		verdict := "ok"
		if slow > wallTolerance {
			verdict = "WALL-CLOCK REGRESSION"
			failed = true
		}
		fmt.Printf("\nnetworks sweep wall clock: %.2fs (calib %.3fs, norm %.1f) vs committed norm %.1f  %+.1f%%  %s\n",
			wall, calib, norm, committed.Perf.NetworksNorm, 100*slow, verdict)
	}

	if failed {
		fmt.Println("\nbaseline check FAILED (tolerance ±2% simulated time, +25% normalized wall clock)")
		return 1
	}
	fmt.Println("\nbaseline check passed (tolerance ±2% simulated time, +25% normalized wall clock)")
	return 0
}

// Scaling-gate parameters.
const (
	// scalingCheckProcs is the processor count the scaling claim is
	// made at.
	scalingCheckProcs = 256
	// scalingCommitFloor is the wall-clock speedup the committed sweep
	// must show at scalingCheckProcs on at least one protocol × network
	// cell — the sparse-representation work's acceptance claim.
	scalingCommitFloor = 5.0
	// scalingCheckFloor is the speedup the live re-run of that cell must
	// still show. Wall clock is noisy in ways the committed snapshot is
	// not (CI neighbors, turbo states), so the gate is deliberately
	// looser than the claim: 2× catches losing the optimization, not
	// scheduler jitter.
	scalingCheckFloor = 2.0
)

// scalingExperiment returns the sweep's workload: Storm on the large
// dataset. Unlike the paper apps — whose bands thin out as the machine
// grows, so their per-barrier communication shrinks — Storm holds
// per-processor work constant, which keeps the dense engine's
// acquire-side notice fan-out (episodes × written units × procs list
// appends) the dominant host cost at 256+ processors — exactly the
// term the sparse engine's fault-time reconstruction removes.
func scalingExperiment() (harness.Experiment, error) {
	e, ok := apps.Lookup("Storm", "large")
	if !ok {
		return harness.Experiment{}, fmt.Errorf("storm has no large dataset")
	}
	return harness.Experiment{App: e.App, Dataset: e.Dataset, Paper: e.Paper, Make: e.Make}, nil
}

// bestScalingCell returns the protocol × network cell with the highest
// wall-clock speedup of the last mode over the first at the given
// processor count.
func bestScalingCell(curves []harness.ScalingCurve, procs int) (proto, network string, speedup float64) {
	type cell struct{ proto, network string }
	byCell := make(map[cell][]harness.ScalingCurve)
	for _, c := range curves {
		k := cell{c.Protocol, c.Network}
		byCell[k] = append(byCell[k], c)
	}
	for k, cs := range byCell {
		if len(cs) < 2 {
			continue
		}
		if s := harness.ScalingSpeedup(cs[0], cs[len(cs)-1], procs); s > speedup {
			proto, network, speedup = k.proto, k.network, s
		}
	}
	return proto, network, speedup
}

// runCheckScaling validates the committed scaling sweep and re-proves
// its headline cell, returning the process exit code. Two gates: the
// committed file must still claim a ≥5× wall-clock win at 256 procs on
// some protocol × network cell (the artifact's integrity — if a
// regenerated sweep lost the win, it must not be committed silently),
// and a live re-run of that one cell must show the win is still real
// on this machine (≥2×; see scalingCheckFloor). Only the single best
// cell re-runs, so the gate stays seconds, not minutes.
func runCheckScaling(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench: -check-scaling:", err)
		return 1
	}
	var committed document
	if err := json.Unmarshal(raw, &committed); err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: -check-scaling: parsing %s: %v\n", path, err)
		return 1
	}
	if len(committed.Scaling) == 0 {
		fmt.Fprintf(os.Stderr, "dsmbench: -check-scaling: %s has no scaling section (regenerate with 'make scaling')\n", path)
		return 1
	}

	modes := harness.ScalingModes()
	refMode, candMode := modes[0].Name, modes[len(modes)-1].Name
	type cell struct{ proto, network string }
	wall := make(map[cell]map[string]float64)
	for _, c := range committed.Scaling {
		for _, pt := range c.Points {
			if pt.Procs != scalingCheckProcs || pt.WallSeconds <= 0 {
				continue
			}
			k := cell{c.Protocol, c.Network}
			if wall[k] == nil {
				wall[k] = make(map[string]float64)
			}
			wall[k][c.Mode] = pt.WallSeconds
		}
	}
	var best cell
	bestSpeedup := 0.0
	fmt.Printf("committed %d-proc wall clock, %s vs %s:\n", scalingCheckProcs, refMode, candMode)
	fmt.Printf("%-10s  %-8s  %12s  %12s  %8s\n", "protocol", "network", refMode+"(s)", candMode+"(s)", "speedup")
	for k, byMode := range wall {
		ref, cand := byMode[refMode], byMode[candMode]
		if ref <= 0 || cand <= 0 {
			continue
		}
		s := ref / cand
		fmt.Printf("%-10s  %-8s  %12.3f  %12.3f  %7.1f×\n", k.proto, k.network, ref, cand, s)
		if s > bestSpeedup {
			best, bestSpeedup = k, s
		}
	}
	if bestSpeedup < scalingCommitFloor {
		fmt.Printf("\nscaling check FAILED: committed sweep's best %d-proc speedup is %.1f× (< %.0f×) — the sparse-representation win is gone from the artifact; regenerate with 'make scaling' only after restoring it\n",
			scalingCheckProcs, bestSpeedup, scalingCommitFloor)
		return 1
	}

	e, err := scalingExperiment()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		return 1
	}
	curves, err := harness.RunScaling(e,
		[]string{best.proto}, []string{best.network}, []int{scalingCheckProcs}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		return 1
	}
	now := 0.0
	if len(curves) >= 2 {
		now = harness.ScalingSpeedup(curves[0], curves[len(curves)-1], scalingCheckProcs)
	}
	fmt.Printf("\nre-run %s × %s at %d procs: %.1f× now vs %.1f× committed (floor %.0f×)\n",
		best.proto, best.network, scalingCheckProcs, now, bestSpeedup, scalingCheckFloor)
	if now < scalingCheckFloor {
		fmt.Printf("\nscaling check FAILED: the sparse/tree configuration no longer beats dense/central by ≥%.0f× wall clock\n",
			scalingCheckFloor)
		return 1
	}
	fmt.Printf("\nscaling check passed (committed claim ≥%.0f×, live floor ≥%.0f×)\n",
		scalingCommitFloor, scalingCheckFloor)
	return 0
}

// configLabels returns the labels of the paper's four configurations.
func configLabels() []string {
	var out []string
	for _, c := range harness.Configs() {
		out = append(out, c.Label)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
}

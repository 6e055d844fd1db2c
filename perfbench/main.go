// Command perfbench is the repository's host-time benchmark. It
// measures how long the simulator takes to regenerate the paper's
// evaluation (eval-sweep), to simulate 256- and 1024-processor cells
// (scale-storm), and to answer a mixed request load through the
// experiment service (dsmd-mixed). It never reports simulated time as
// a performance figure; simulated results are outputs it checks.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --rate 80 --limit-ms 250 --workload eval-sweep --seed 1 --seconds 20 --trace 0
//
// Each run starts fresh child processes of itself, one workload pass
// each, until --seconds of measured time is used up, and prints one JSON object as the
// last line of standard output. With --trace 0 it holds the end-to-end
// metrics; with --trace 1 the children alternate between untraced
// passes and traced passes and the object holds the per-layer metrics.
// Any failed output check makes the exit status non-zero.
//
// The committed BENCH_*.json files and dsmbench's -check-baseline,
// -check-scaling and -check-speedup gates are separate from this
// benchmark and unchanged by it; folding them behind it is later work.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "repro/internal/apps/all" // populate the workload registry
)

// Seeds: the default, and a held-out seed kept for confirming a claim
// on inputs not used while the change was written.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

// options are the benchmark's knobs.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	mix      mixConfig
	// tiny shrinks every workload to a smoke-sized grid (self-test).
	tiny bool
	// setupOnly makes a child stop at its first timed operation.
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: eval-sweep, scale-storm or dsmd-mixed")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", heldOutSeed))
	flag.IntVar(&o.seconds, "seconds", 20, "measurement budget of this run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Float64Var(&o.mix.rate, "rate", 80, "dsmd-mixed steady-phase rate, requests per second")
	flag.Float64Var(&o.mix.limitMS, "limit-ms", 250, "dsmd-mixed p99 latency limit of a stepped rate, ms")
	child := flag.Bool("child", false, "run one workload pass in this process (used by the parent)")
	traced := flag.Bool("traced", false, "with -child: make the traced pass")
	rep := flag.Int("rep", 0, "with -child: the pass number within the run")
	refsOut := flag.String("write-refs", "", "regenerate the reference outcomes into FILE and exit")
	flag.BoolVar(&o.tiny, "tiny", false, "smoke-sized grids (self-test)")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "with -child: stop at the first timed operation")
	flag.Parse()
	o.mix = defaultMix(o.mix.rate, o.mix.limitMS, float64(o.seconds), o.tiny)

	switch {
	case *refsOut != "":
		if err := regenerateRefs(*refsOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	case *child:
		res := runChild(o, *traced, *rep)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	default:
		os.Exit(runParent(o))
	}
}

// defaultMix is the dsmd-mixed load shape at the given nominal rate,
// latency limit and steady-phase length.
func defaultMix(rate, limitMS, steadyS float64, tiny bool) mixConfig {
	m := mixConfig{rate: rate, limitMS: limitMS, steadyS: steadyS,
		steps: 3, stepReqs: 1000, startFactor: 2.5, stepFactor: 1.6}
	if tiny {
		m.steps, m.stepReqs = 1, 20
	}
	return m
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

// --- parent -----------------------------------------------------------------------

// childRun is one finished child process as the parent saw it.
type childRun struct {
	res     childResult
	setupS  float64 // parent's exec to the child's first timed operation
	cpuS    float64 // user + system CPU time
	rssMB   float64
	traced  bool
	elapsed time.Duration
}

// runParent runs child passes until the budget is used and prints the
// run's result. It returns the process exit status.
func runParent(o options) int {
	if !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1 (got %d)\n", o.trace)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	start := time.Now()
	steal0, total0 := cpuSteal()
	// The budget counts measured time: each pass's wall time after its
	// set-up. Passes run until it is used, and stop early when one more
	// could take the run past maxRunTime.
	budget := time.Duration(o.seconds) * time.Second
	var runs []childRun
	var measured, longest time.Duration
	for rep := 0; ; rep++ {
		traced := o.trace == 1 && rep%2 == 1
		r, err := spawn(self, o, traced, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		runs = append(runs, r)
		measured += r.elapsed - time.Duration(r.setupS*float64(time.Second))
		longest = max(longest, r.elapsed)
		needBoth := o.trace == 1 && rep == 0
		if !needBoth && (measured >= budget || time.Since(start)+longest > maxRunTime) {
			break
		}
	}
	// A cheap set-up is sampled more often than the passes allow: extra
	// children that stop at their first timed operation.
	setups := []float64{}
	for _, r := range runs {
		if !r.traced {
			setups = append(setups, r.setupS)
		}
	}
	for o.trace == 0 && len(setups) < minSetupSamples && median(setups) < cheapSetupS {
		so := o
		so.setupOnly = true
		r, err := spawn(self, so, false, len(runs)+len(setups))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		setups = append(setups, r.setupS)
	}

	out := assemble(o, runs, setups)
	if steal1, total1 := cpuSteal(); total1 > total0 {
		out.context.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	ctx, _ := json.Marshal(out.context)
	fmt.Println(string(ctx))
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.result.Failed > 0 {
		return 1
	}
	return 0
}

// maxRunTime caps a run's passes well inside the 180 s a run may take.
const maxRunTime = 120 * time.Second

// Set-up sampling: a run reports the median set-up time of at least
// minSetupSamples children when one set-up costs under cheapSetupS.
const (
	minSetupSamples = 11
	cheapSetupS     = 0.5
)

// spawn runs one child pass and collects what the parent measures of
// it from outside: set-up time, wall time, CPU time and peak RSS.
func spawn(self string, o options, traced bool, rep int) (childRun, error) {
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-rep", fmt.Sprint(rep),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-rate", fmt.Sprint(o.mix.rate), "-limit-ms", fmt.Sprint(o.mix.limitMS)}
	if traced {
		args = append(args, "-traced")
	}
	if o.tiny {
		args = append(args, "-tiny")
	}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Env = childEnv()
	// A child must not outlive the run that started it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s pass %d: %w", o.workload, rep, err)
	}
	elapsed := time.Since(start)
	var res childResult
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return childRun{}, fmt.Errorf("%s pass %d: reading its result: %w", o.workload, rep, err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return childRun{
		res:     res,
		setupS:  float64(res.FirstOpUnixNS-start.UnixNano()) / 1e9,
		cpuS:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		rssMB:   float64(ru.Maxrss) / 1024, // ru_maxrss is in KiB on Linux
		traced:  traced,
		elapsed: elapsed,
	}, nil
}

// childEnv caps each child at GOMAXPROCS ≤ nproc (the Go runtime's
// default) and keeps the operator's other settings.
func childEnv() []string {
	env := os.Environ()
	if os.Getenv("GOMAXPROCS") == "" {
		env = append(env, fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	}
	return env
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContext is printed on the line before the result: what the run
// measured on, and the sample counts behind its percentiles.
type runContext struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      int            `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Passes     int            `json:"passes"`
	Samples    map[string]int `json:"samples"`
	// StealFrac is the share of the host's CPU time the hypervisor gave
	// to other guests during the run, when the kernel reports it: the
	// main source of run-to-run noise on a shared host.
	StealFrac float64  `json:"steal_frac"`
	Notes     []string `json:"notes,omitempty"`
	Failures  []string `json:"failures,omitempty"`
}

type assembled struct {
	context runContext
	result  result
}

// assemble turns the children's results into the run's metrics.
func assemble(o options, runs []childRun, setups []float64) assembled {
	ctx := runContext{Workload: o.workload, Seed: o.seed, Trace: o.trace, NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), Passes: len(runs), Samples: map[string]int{}}
	res := result{Metrics: map[string]metric{}}
	var untraced, traced []childRun
	for _, r := range runs {
		res.Attempted += r.res.Attempted
		res.Failed += r.res.Failed
		ctx.Failures = append(ctx.Failures, r.res.Failures...)
		ctx.GOMAXPROCS = r.res.GOMAXPROCS
		ctx.Samples["spans.checked"] += r.res.SpansChecked
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
		ctx.Failures = append(ctx.Failures, "no operation ran")
	}
	res.Correct = res.Failed == 0
	ctx.Samples["passes.untraced"] = len(untraced)
	ctx.Samples["passes.traced"] = len(traced)
	ctx.Samples["setups"] = len(setups)

	pick := func(rs []childRun, f func(childRun) float64) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, f(r))
		}
		return out
	}
	// A latency percentile is taken per probe and averaged over the
	// run's untraced probes. The host's speed flips between two levels
	// within a second (a cache hit took 18 or 28 µs), so a median over
	// pooled samples, or over probes, jumped between the two as the
	// share of fast samples crossed one half; the mean of per-probe
	// percentiles moves with that share.
	probes := map[string][][]float64{}
	for _, r := range untraced {
		for _, p := range r.res.Probes {
			for k, v := range p {
				probes[k] = append(probes[k], v)
				ctx.Samples["latency."+k] += len(v)
			}
		}
	}
	pct := func(disposition string, q float64) float64 {
		var vs []float64
		for _, lat := range probes[disposition] {
			vs = append(vs, percentile(lat, q))
			if b := beyond(len(lat), q); b < 10 {
				ctx.Notes = append(ctx.Notes, fmt.Sprintf("a probe has only %d %s samples beyond p%.0f", b, disposition, q))
			}
		}
		return mean(vs)
	}
	if o.trace == 0 {
		val := map[string]float64{
			"setup_s":        median(setups),
			"wall_s":         median(pick(untraced, func(r childRun) float64 { return r.res.WallS })),
			"peak_rss_mb":    median(pick(untraced, func(r childRun) float64 { return r.rssMB })),
			"hit_p50_ms":     pct("hit", 50),
			"miss_p50_ms":    pct("miss", 50),
			"miss_p90_ms":    pct("miss", 90),
			"derived_p50_ms": pct("derived", 50),
			"derived_p90_ms": pct("derived", 90),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{val[m.name], m.unit}
		}
		return assembled{ctx, res}
	}

	// Per-layer: each metric is the median over the passes that report
	// it. Traced passes report the engine and service layers; untraced
	// passes report what is measured without tracing.
	layer := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r.res.Layer {
			layer[k] = append(layer[k], v)
		}
	}
	for _, r := range untraced {
		layer["runtime.cpu_util"] = append(layer["runtime.cpu_util"], r.cpuS/(r.elapsed.Seconds()*float64(r.res.GOMAXPROCS)))
	}
	tw := median(pick(traced, func(r childRun) float64 { return r.res.WallS }))
	uw := median(pick(untraced, func(r childRun) float64 { return r.res.WallS }))
	if uw > 0 {
		layer["trace_overhead_frac"] = []float64{tw/uw - 1}
	}
	layer["fail_frac"] = []float64{float64(res.Failed) / float64(res.Attempted)}
	layer["hit_p99_ms"] = []float64{pct("hit", 99)}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{median(layer[m.name]), m.unit}
	}
	return assembled{ctx, res}
}

// cpuSteal returns the host's cumulative steal and total CPU ticks
// from /proc/stat, or zeros where the kernel does not report them.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commit returns the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built in a git checkout)"
}

// --- child ------------------------------------------------------------------------

// childResult is one pass, as the child reports it.
type childResult struct {
	Workload      string   `json:"workload"`
	Traced        bool     `json:"traced"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	FirstOpUnixNS int64    `json:"first_op_unix_ns"`
	WallS         float64  `json:"wall_s"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	Failures      []string `json:"failures,omitempty"`
	// Probes holds each service probe's latencies by disposition, ms.
	Probes       []map[string][]float64 `json:"probes,omitempty"`
	Layer        map[string]float64     `json:"layer,omitempty"`
	SpansChecked int                    `json:"spans_checked,omitempty"`
}

// runChild makes one pass of the workload in this process.
func runChild(o options, traced bool, rep int) childResult {
	// The batch sweeps run with dsmbench's collector setting: a small
	// live heap and heavy short-lived allocation.
	if o.workload != "dsmd-mixed" && os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	res := childResult{Workload: o.workload, Traced: traced, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Layer: map[string]float64{}}
	seed := o.seed*1_000_003 + uint64(rep)
	refs, err := loadRefs()
	chk := newChecker(refs)
	if err != nil {
		chk.fail(err.Error())
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	switch o.workload {
	case "eval-sweep":
		childEvalSweep(o, seed, rec, chk, &res)
	case "scale-storm":
		childScaleStorm(o, seed, rec, chk, &res)
	case "dsmd-mixed":
		childDsmdMixed(o, seed, rec, chk, &res)
	}
	if rec != nil {
		if n := rec.checkNesting(); n > 0 {
			for _, b := range rec.broken[:min(n, 5)] {
				chk.fail(b)
			}
		}
		path := filepath.Join(".bench_build", "perfbench", "spans",
			fmt.Sprintf("%s-seed%d-pass%d.jsonl", o.workload, o.seed, rep))
		if err := rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		res.SpansChecked = rec.nested
	} else {
		runtimeMetrics(res.Layer)
	}
	res.Attempted, res.Failed, res.Failures = chk.attempted, chk.failed, chk.failures
	return res
}

// firstOp marks the start of the first timed operation.
func firstOp(res *childResult) time.Time {
	now := time.Now()
	res.FirstOpUnixNS = now.UnixNano()
	return now
}

func childEvalSweep(o options, seed uint64, rec *recorder, chk *checker, res *childResult) {
	grids := evalGrids()
	if o.tiny {
		grids = tinyGrids()
	}
	if rec == nil {
		start := firstOp(res)
		if o.setupOnly {
			return
		}
		runEvalSweep(grids, chk)
		res.WallS = time.Since(start).Seconds()
		res.Layer["harness.derived_frac"] = derivedFrac(chk.observed())
		probesAfterGrid(o, seed, chk, res)
		return
	}
	te := &tracedEval{rec: rec, chk: chk, pool: newPool()}
	start := firstOp(res)
	te.run(grids)
	res.WallS = time.Since(start).Seconds()
	rec.layerMetrics(res.Layer)
	pairedCosts(o.tiny, res.Layer)
	probeAll(res.Layer)
}

func childScaleStorm(o options, seed uint64, rec *recorder, chk *checker, res *childResult) {
	e, err := stormExperiment()
	if err != nil {
		chk.fail(err.Error())
		return
	}
	protos, sizes := stormProtocols, stormSizes
	if o.tiny {
		sizes = []int{16}
	}
	if rec == nil {
		start := firstOp(res)
		if o.setupOnly {
			return
		}
		runScaleStorm(e, protos, sizes, chk)
		res.WallS = time.Since(start).Seconds()
		probesAfterGrid(o, seed, chk, res)
		return
	}
	start := firstOp(res)
	tracedScaleStorm(rec, newPool(), e, protos, sizes, chk)
	res.WallS = time.Since(start).Seconds()
	rec.layerMetrics(res.Layer)
	probeAll(res.Layer)
}

// Service probes per untraced pass: after the grid of eval-sweep and
// scale-storm, and between the short steady phases of dsmd-mixed. The
// run's latency percentiles are per-probe percentiles averaged over all
// its probes.
const (
	gridProbes = 2
	e2eProbes  = 5
)

// probesAfterGrid runs the service probes of a grid workload's pass.
func probesAfterGrid(o options, seed uint64, chk *checker, res *childResult) {
	for i := range gridProbes {
		serviceLatencies(o, seed+uint64(i)<<32, chk, res, nil)
	}
}

// serviceLatencies runs the closed-loop service probe, adds its
// latencies to the pass's result and returns its host time.
func serviceLatencies(o options, seed uint64, chk *checker, res *childResult, wrap func(func())) float64 {
	start := time.Now()
	lat, err := serviceProbe(seed, o.tiny, chk, wrap)
	if err != nil {
		chk.fail(err.Error())
		return 0
	}
	res.Probes = append(res.Probes, lat)
	return time.Since(start).Seconds()
}

func childDsmdMixed(o options, seed uint64, rec *recorder, chk *checker, res *childResult) {
	m, err := newMix(seed, o.mix, o.tiny)
	if err != nil {
		chk.fail(err.Error())
		return
	}
	srv := newServer()
	t0 := time.Now()
	for _, oc := range closedLoop(srv, m.cells, m.warm, 2*runtime.GOMAXPROCS(0), nil) {
		chk.op(oc.failure)
	}
	warm := time.Since(t0)
	var wrap func(func())
	if rec != nil {
		wrap = func(run func()) {
			s := rec.begin("expsvc.Server.ServeHTTP", 0, 0)
			run()
			rec.end(s)
		}
	}
	start := firstOp(res)
	if o.setupOnly {
		return
	}
	// The end-to-end disposition latencies come from two closed-loop
	// probes (on fresh servers), one on each side of the steady phase.
	// Only the untraced passes of a per-layer run measure the load
	// itself: a steady phase of --seconds and the rate search. Every
	// other pass sends a short steady phase, to leave the service
	// loaded and churned between its probes.
	loadPass := o.trace == 1 && rec == nil
	var probeWalls []float64
	probe := func(i int) {
		probeWalls = append(probeWalls, serviceLatencies(o, seed+uint64(i)<<32, chk, res, wrap))
	}
	probe(0)
	before := srv.Stats()
	var steady []outcome
	if loadPass || rec != nil {
		idx := m.steady
		if !loadPass {
			idx = idx[:min(len(idx), int(o.mix.rate*shortSteadyS))]
		}
		steady = openLoop(srv, m.cells, idx, o.mix.rate, wrap)
		probe(1)
	} else {
		// An end-to-end pass interleaves short steady phases with its
		// probes, so that its probes sample the host across the pass.
		short := int(o.mix.rate * shortSteadyS)
		for i := 1; i < e2eProbes; i++ {
			lo := min((i-1)*short, len(m.steady))
			steady = append(steady, openLoop(srv, m.cells, m.steady[lo:min(lo+short, len(m.steady))], o.mix.rate, nil)...)
			probe(i)
		}
	}
	after := srv.Stats()
	res.WallS = median(probeWalls)
	var lag []float64
	for _, oc := range steady {
		chk.op(oc.failure)
		lag = append(lag, ms(oc.lag))
	}
	if loadPass {
		// Latency under the mixed load, and the rate search, vary with the
		// host's other tenants far more than their bounds allow on a shared
		// 2-vCPU host, so they are reported per layer.
		maxRate, stepped := maxRPS(srv, m, o.mix)
		for _, oc := range stepped {
			chk.op(oc.failure)
		}
		loaded := latencies(steady)
		res.Layer["max_rps"] = maxRate
		res.Layer["loadgen.lag_p99_ms"] = percentile(lag, 99)
		for _, q := range []struct {
			disposition string
			pcts        []float64
		}{{"hit", []float64{50, 99}}, {"miss", []float64{50, 90}}, {"derived", []float64{50, 90}}} {
			for _, p := range q.pcts {
				res.Layer[fmt.Sprintf("mixed.%s_p%.0f_ms", q.disposition, p)] = percentile(loaded[q.disposition], p)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: dsmd-mixed warm-up %.1fs, timed %.1fs (%d steady requests)\n",
		warm.Seconds(), time.Since(start).Seconds(), len(steady))

	if rec == nil {
		return
	}
	// The service's counters over the steady phase.
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		res.Layer["expsvc.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	res.Layer["expsvc.coalesced"] = float64(after.Coalesced - before.Coalesced)
	res.Layer["expsvc.derived"] = float64(after.Derived - before.Derived)
	res.Layer["expsvc.evictions"] = float64(after.CacheEvictions - before.CacheEvictions)
	runs := after.Runs - before.Runs
	res.Layer["expsvc.engine_runs"] = float64(runs)
	if runs > 0 {
		runMS := (after.TotalRunSeconds - before.TotalRunSeconds) / float64(runs) * 1000
		res.Layer["expsvc.run_ms"] = runMS
		res.Layer["expsvc.miss_wait_ms"] = percentile(latencies(steady)["miss"], 50) - runMS
	}
	res.Layer["expsvc.resolve_us"] = resolveProbe(rec, m.cells)
	checkServed(rec, m.cells, steady, chk)
	rec.layerMetrics(res.Layer)
	pairedCosts(o.tiny, res.Layer)
	probeAll(res.Layer)
}

// runtimeMetrics records the Go runtime's allocation and GC CPU share
// over the pass.
func runtimeMetrics(m map[string]float64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		m["runtime.alloc_mb"] = float64(samples[0].Value.Uint64()) / (1 << 20)
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 && samples[2].Value.Kind() == metrics.KindFloat64 {
		if total := samples[2].Value.Float64(); total > 0 {
			m["runtime.gc_cpu_frac"] = samples[1].Value.Float64() / total
		}
	}
}

// regenerateRefs runs every grid once, untraced, and writes the
// replay-safe outcomes as the reference file.
func regenerateRefs(path string) error {
	chk := newChecker(nil)
	runEvalSweep(evalGrids(), chk)
	e, err := stormExperiment()
	if err != nil {
		return err
	}
	runScaleStorm(e, stormProtocols, append([]int{16}, stormSizes...), chk)
	runEvalSweep(tinyGrids(), chk)
	if chk.failed > 0 {
		return fmt.Errorf("grids failed: %s", strings.Join(chk.failures, "; "))
	}
	return writeRefs(path, chk.observed())
}

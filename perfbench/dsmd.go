package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/expsvc"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// --- spec population -----------------------------------------------------------

// family is every network variant of one spec: the unit the service's
// stored captures are shared across (expsvc's TraceKey).
type family struct {
	app, dataset, protocol string
	unit                   int
	collect                bool
}

// cell is one spec the load generator can send, with its request body
// and the canonical hash the response must name.
type cell struct {
	spec expsvc.Spec
	body []byte
	hash string
}

// serviceDatasets returns each application's small, medium and paper
// datasets, in registry order.
func serviceDatasets() []apps.Entry {
	var out []apps.Entry
	for _, e := range apps.Entries() {
		if e.Dataset == "small" || e.Dataset == "medium" || e.Paper != "" {
			out = append(out, e)
		}
	}
	return out
}

// allFamilies is the spec population: small, medium and paper datasets
// × {homeless, home, adaptive} × {4, 8, 16 KB} units × collect on/off.
// Each family expands to every registered network.
func allFamilies() []family {
	var out []family
	for _, e := range serviceDatasets() {
		for _, proto := range []string{"homeless", "home", "adaptive"} {
			for _, unit := range []int{1, 2, 4} {
				for _, collect := range []bool{false, true} {
					out = append(out, family{e.App, e.Dataset, proto, unit, collect})
				}
			}
		}
	}
	return out
}

func (f family) cells() ([]cell, error) {
	var out []cell
	for _, n := range netmodel.Names() {
		s := expsvc.Spec{App: f.app, Dataset: f.dataset, UnitPages: f.unit,
			Protocol: f.protocol, Network: n, Collect: f.collect}
		c, err := newCell(s)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func newCell(s expsvc.Spec) (cell, error) {
	res, err := expsvc.Resolve(s)
	if err != nil {
		return cell{}, fmt.Errorf("resolving %+v: %w", s, err)
	}
	body, err := json.Marshal(s)
	if err != nil {
		return cell{}, err
	}
	return cell{spec: s, body: body, hash: res.Hash()}, nil
}

// rankFamilies orders the families by popularity, most popular first.
// The order is random but stratified: ranks go round-robin over the
// application × dataset groups (in a fresh random group order each
// round), so every popularity band — the cached head and the missing
// tail alike — holds the same mix of cheap and expensive datasets
// whatever the seed.
func rankFamilies(rng *rand.Rand, fams []family) []family {
	var groups [][]family
	at := map[[2]string]int{}
	for _, f := range fams {
		k := [2]string{f.app, f.dataset}
		i, ok := at[k]
		if !ok {
			i = len(groups)
			at[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], f)
	}
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	var out []family
	for round := 0; len(out) < len(fams); round++ {
		for _, gi := range rng.Perm(len(groups)) {
			if round < len(groups[gi]) {
				out = append(out, groups[gi][round])
			}
		}
	}
	return out
}

// smallFamilies keeps the families on small datasets (self-test).
func smallFamilies(fams []family) []family {
	var out []family
	for _, f := range fams {
		if f.dataset == "small" {
			out = append(out, f)
		}
	}
	return out
}

// --- schedule -------------------------------------------------------------------

// mixConfig fixes the dsmd-mixed load: the steady phase's nominal
// rate, the latency limit max_rps is judged against, and the phase
// lengths.
type mixConfig struct {
	rate    float64 // steady-phase arrivals per second
	limitMS float64 // p99 latency limit of a stepped rate
	steadyS float64 // steady-phase length
	// The stepped rates: steps phases of stepReqs requests each, the
	// first at startFactor × rate; see maxRPS.
	steps       int
	stepReqs    int
	startFactor float64
	stepFactor  float64
}

// shortSteadyS is the steady phase of a dsmd-mixed pass that does not
// measure the load itself (the passes of an end-to-end run, and traced
// passes): enough mixed traffic to leave the service loaded and churned
// between its two probes.
const shortSteadyS = 2

// zipfS is the popularity skew over families: family k (from 0) is
// drawn with weight 1/(k+1)^zipfS.
const zipfS = 0.9

// sessionGap is the number of arrivals between two requests of one
// network-sweep session.
const sessionGap = 32

// mix is one generated dsmd-mixed load: the spec universe and, as
// indices into it, the warm-up prefix and each timed phase's requests.
type mix struct {
	cells  []cell
	warm   []int // issued closed-loop before timing
	steady []int
	steps  [][]int
}

// populationSeed fixes which specs the service population holds and
// how popular each is. The population is part of the workload's
// definition, like a dataset: the run's seed draws requests from it,
// so runs with different seeds see the same cached head and the same
// missing tail.
const populationSeed = 0x64736d64

// newMix takes about twice the result cache's capacity of distinct
// specs (whole families) in popularity order, and draws from seed the
// requests of every timed phase. The warm-up requests every spec of the
// most popular families until the cache is full.
func newMix(seed uint64, cfg mixConfig, tiny bool) (*mix, error) {
	rng := rand.New(rand.NewPCG(seed, 0x64736d64))
	fams := allFamilies()
	per := len(netmodel.Names())
	capacity := expsvc.DefaultCacheEntries
	if tiny {
		fams, capacity = smallFamilies(fams), 4*per
	}
	fams = rankFamilies(rand.New(rand.NewPCG(populationSeed, 0)), fams)
	want := (2*capacity + per - 1) / per
	if want < len(fams) {
		fams = fams[:want]
	}
	m := &mix{}
	for _, f := range fams {
		cs, err := f.cells()
		if err != nil {
			return nil, err
		}
		m.cells = append(m.cells, cs...)
	}
	for i := 0; i < capacity && i < len(m.cells); i++ {
		m.warm = append(m.warm, i)
	}
	cdf := make([]float64, len(fams))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -zipfS)
		cdf[k] = total
	}
	phase := func(n int) []int { return sessions(rng, cdf, per, n) }
	m.steady = phase(int(cfg.rate * cfg.steadyS))
	for range cfg.steps {
		m.steps = append(m.steps, phase(cfg.stepReqs))
	}
	return m, nil
}

// sessions lays out n requests. Requests come in network sweeps: a
// session picks a family by popularity and asks for one to all of its
// networks, in random order, its requests sessionGap arrivals apart (a
// user waits for one answer before asking the next). The families are
// drawn by systematic sampling of the popularity distribution — evenly
// spaced quantiles from one random offset — and the session lengths
// cycle through 1 to all networks, both in seed-shuffled order, so
// every seed asks for nearly the same multiset of specs and mostly the
// order, the networks picked and the offset vary.
func sessions(rng *rand.Rand, cdf []float64, per, n int) []int {
	// A quarter more sessions than the mean session length needs, so the
	// layout always fills: the sessions left over are not sent.
	count := (5*n/2/(per+1) + per) / per * per
	offset := rng.Float64()
	fams := make([]int, count)
	for i := range fams {
		fams[i] = sort.SearchFloat64s(cdf, (float64(i)+offset)/float64(count)*cdf[len(cdf)-1])
	}
	rng.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	lengths := rng.Perm(count)
	out := make([]int, n)
	taken := make([]bool, n)
	next := 0
	for i, f := range fams {
		for next < n && taken[next] {
			next++
		}
		if next == n {
			break
		}
		slot := next
		for j, net := range rng.Perm(per)[:1+lengths[i]%per] {
			if j > 0 {
				for slot += sessionGap; slot < n && taken[slot]; slot++ {
				}
			}
			if slot >= n {
				break
			}
			taken[slot], out[slot] = true, f*per+net
		}
	}
	// A phase shorter than a session's spread leaves slots free: they
	// get single requests.
	for i := range out {
		if !taken[i] {
			out[i] = fams[i%len(fams)]*per + rng.IntN(per)
		}
	}
	return out
}

// --- service driver -----------------------------------------------------------

// newServer builds the service with its deployed defaults, logging at
// Info level to a discarding handler so access-log formatting stays in
// the measured path.
func newServer() *expsvc.Server {
	return expsvc.New(expsvc.Config{
		CacheEntries:      expsvc.DefaultCacheEntries,
		TraceEntries:      expsvc.DefaultTraceEntries,
		MaxConcurrentRuns: runtime.GOMAXPROCS(0),
		Logger:            slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
}

// outcome is one answered request.
type outcome struct {
	cell        int
	disposition string // Dsm-Cache, or "failed"
	latency     time.Duration
	lag         time.Duration // how late the generator sent it
	failure     string
	body        []byte
}

// serve sends one request through ServeHTTP and checks the response:
// a 200 whose Dsm-Cell names the spec's canonical hash.
func serve(srv http.Handler, c cell) outcome {
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(c.body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	o := outcome{disposition: rec.Header().Get(expsvc.HeaderCache), body: rec.Body.Bytes()}
	switch {
	case rec.Code != http.StatusOK:
		o.failure = fmt.Sprintf("%s/%s: status %d: %s", c.spec.App, c.spec.Dataset, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	case rec.Header().Get(expsvc.HeaderCell) != c.hash:
		o.failure = fmt.Sprintf("%s/%s: Dsm-Cell %q, want %q", c.spec.App, c.spec.Dataset, rec.Header().Get(expsvc.HeaderCell), c.hash)
	}
	if o.failure != "" {
		o.disposition = "failed"
	}
	return o
}

// closedLoop issues the cells with conc requests in flight at a time
// and returns their outcomes, in order. wrap, when non-nil, runs each
// request (the traced run wraps it in a span).
func closedLoop(srv http.Handler, cells []cell, idx []int, conc int, wrap func(func())) []outcome {
	out := make([]outcome, len(idx))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i, ci := range idx {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			run := func() {
				start := time.Now()
				o := serve(srv, cells[ci])
				o.cell, o.latency = ci, time.Since(start)
				out[i] = o
			}
			if wrap != nil {
				wrap(run)
			} else {
				run()
			}
		}()
	}
	wg.Wait()
	return out
}

// openLoop sends the requests at evenly spaced due times — an open
// loop whose own burstiness adds no run-to-run noise — from one
// generator, one goroutine per due request, times every request from
// when it was due, and returns once all are answered. wrap, when
// non-nil, runs each request (the traced run wraps it in a span).
func openLoop(srv http.Handler, cells []cell, idx []int, rate float64, wrap func(func())) []outcome {
	out := make([]outcome, len(idx))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ci := range idx {
		due := start.Add(time.Duration(float64(i+1) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := func() {
				o := serve(srv, cells[ci])
				o.cell, o.latency, o.lag = ci, time.Since(due), lag
				out[i] = o
			}
			if wrap != nil {
				wrap(run)
			} else {
				run()
			}
		}()
	}
	wg.Wait()
	return out
}

// stepVerdict judges one stepped rate: it holds when the p99 latency
// over all its requests (a failed request counts as over the limit)
// stays under the limit and the backlog does not grow — the median
// latency of the step's last quarter exceeds its first quarter's by
// less than a quarter of the limit.
func stepVerdict(outs []outcome, limit time.Duration) (p99, grow float64, ok bool) {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = ms(o.latency)
		if o.failure != "" {
			lat[i] = math.Inf(1)
		}
	}
	p99 = percentile(lat, 99)
	q := len(lat) / 4
	grow = median(lat[len(lat)-q:]) - median(lat[:q])
	return p99, grow, p99 <= ms(limit) && grow < ms(limit)/4
}

// maxRPS searches for the highest request rate that holds. The first
// step runs at startFactor × the nominal rate; each later step moves up
// after a step that held and down after one that did not, by a factor
// that shrinks to its square root every step. Each step is drained
// before the next starts. The answer is the highest rate that held,
// moved toward the lowest faster rate that did not by where the limit
// falls between their p99 latencies.
func maxRPS(srv http.Handler, m *mix, cfg mixConfig) (float64, []outcome) {
	limit := time.Duration(cfg.limitMS * float64(time.Millisecond))
	rate, f := cfg.rate*cfg.startFactor, cfg.stepFactor
	held, failed := [2]float64{}, [2]float64{math.Inf(1), 0} // {rate, p99}
	var all []outcome
	for _, idx := range m.steps {
		outs := openLoop(srv, m.cells, idx, rate, nil)
		all = append(all, outs...)
		p99, grow, ok := stepVerdict(outs, limit)
		fmt.Fprintf(os.Stderr, "perfbench: step %.0f req/s: %d requests, p99 %.1f ms, backlog growth %.1f ms, holds %t\n",
			rate, len(outs), p99, grow, ok)
		switch {
		case ok && rate > held[0]:
			held = [2]float64{rate, p99}
		case !ok && rate < failed[0]:
			failed = [2]float64{rate, p99}
		}
		if ok {
			rate *= f
		} else {
			rate /= f
		}
		f = math.Sqrt(f)
	}
	best := held[0]
	if best > 0 && failed[0] > best && !math.IsInf(failed[1], 1) && failed[1] > held[1] {
		frac := min(1, max(0, (cfg.limitMS-held[1])/(failed[1]-held[1])))
		best += frac * (failed[0] - best)
	}
	return best, all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies groups outcome latencies by disposition, in ms.
func latencies(outs []outcome) map[string][]float64 {
	by := map[string][]float64{}
	for _, o := range outs {
		by[o.disposition] = append(by[o.disposition], ms(o.latency))
	}
	return by
}

// --- service probe ------------------------------------------------------------

// probeFamilies is the service probe's population: every replay-safe
// application's small and medium datasets under the static protocols
// at 4 to 32 KB units, collection off — cells the service derives.
func probeFamilies() []family {
	var out []family
	for _, e := range apps.Entries() {
		if (e.Dataset != "small" && e.Dataset != "medium") || !apps.ReplaySafe(e.App) {
			continue
		}
		for _, proto := range []string{"homeless", "home"} {
			for _, unit := range []int{1, 2, 4, 8} {
				out = append(out, family{e.App, e.Dataset, proto, unit, false})
			}
		}
	}
	return out
}

// Service-probe sizes: enough misses and derived answers for a p90
// with ten samples beyond it, and hits for a p99 with a hundred. Hits
// are cheap, and a hit allocates about 14 KB, so a few thousand of them
// either did or did not meet a garbage collection: a p99 resting on
// ten samples moved by a third between runs.
const (
	probeMisses = 110
	probeHits   = 10000
)

// serviceProbe measures the service's unloaded latency per cache
// disposition: one request at a time to a fresh server, first the
// ideal-network spec of each of probeMisses families (a miss that
// stores its capture) followed by its other networks (derived from
// it), then probeHits repeats of answered specs. One client per CPU
// was tried: the misses of two clients overlapped at random, and their
// p50 spread twice as far between runs.
func serviceProbe(seed uint64, tiny bool, chk *checker, wrap func(func())) (map[string][]float64, error) {
	rng := rand.New(rand.NewPCG(seed, 0x70726f))
	fams := probeFamilies()
	rng.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	misses, hits := probeMisses, probeHits
	if tiny {
		misses, hits = 2, 20
	}
	if len(fams) < misses {
		return nil, fmt.Errorf("service probe needs %d families, the registry gives %d", misses, len(fams))
	}
	var cells []cell
	for _, f := range fams[:misses] {
		cs, err := f.cells()
		if err != nil {
			return nil, err
		}
		// Put the ideal network first: it executes, the rest derive.
		sort.SliceStable(cs, func(i, j int) bool {
			return cs[i].spec.Network == netmodel.Default && cs[j].spec.Network != netmodel.Default
		})
		cells = append(cells, cs...)
	}
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < hits; i++ {
		idx = append(idx, rng.IntN(len(cells)))
	}
	// Each phase starts from a settled heap: the garbage of what ran
	// before would otherwise put collections inside a random few of its
	// requests.
	runtime.GC()
	srv := newServer()
	outs := closedLoop(srv, cells, idx[:len(cells)], 1, wrap)
	runtime.GC()
	outs = append(outs, closedLoop(srv, cells, idx[len(cells):], 1, wrap)...)
	for _, o := range outs {
		chk.op(o.failure)
	}
	return latencies(outs), nil
}

// sinkOrNil keeps a nil capture a nil interface.
func sinkOrNil(ms *trace.MemSink) trace.Sink {
	if ms == nil {
		return nil
	}
	return ms
}

// --- traced checks --------------------------------------------------------------

// resolveProbe decodes each request body as the server does and
// times expsvc.Resolve + Hash on it inside a span, returning the mean
// in µs.
func resolveProbe(rec *recorder, cells []cell) float64 {
	var total int64
	n := 0
	for _, c := range cells {
		var spec expsvc.Spec
		if json.Unmarshal(c.body, &spec) != nil {
			continue
		}
		s := rec.begin("expsvc.Resolve", 0, 0)
		res, err := expsvc.Resolve(spec)
		if err == nil {
			_ = res.Hash()
		}
		s = rec.end(s)
		if err == nil {
			total += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// checkServed re-executes each distinct cell the service answered by a
// miss or a derivation through the instrumented cell runner, and
// checks that the response reported the same simulated message and
// byte totals. Schedule-sensitive applications are exempt from the
// exact comparison; their spread is reported instead.
func checkServed(rec *recorder, cells []cell, outs []outcome, chk *checker) {
	done := map[int]bool{}
	for _, o := range outs {
		if o.failure != "" || done[o.cell] || (o.disposition != "miss" && o.disposition != "derived") {
			continue
		}
		done[o.cell] = true
		c := cells[o.cell]
		res, err := expsvc.Resolve(c.spec)
		if err != nil {
			chk.fail(err.Error())
			continue
		}
		var rep harness.TrialsJSON
		if err := json.Unmarshal(o.body, &rep); err != nil || len(rep.Trials) != 1 {
			chk.fail(fmt.Sprintf("%s/%s: unreadable report", c.spec.App, c.spec.Dataset))
			continue
		}
		cfg := res.EngineConfig()
		key := fmt.Sprintf("dsmd|%s", c.hash)
		// A derived answer's capture is re-derived here, so the traced
		// run times Derive on the service's own population.
		var capture *trace.MemSink
		if o.disposition == "derived" {
			capture = trace.NewMemSink()
		}
		r, err := rec.tracedCell(0, key, res.Entry.Make(res.Procs()), cfg, sinkOrNil(capture))
		if err == nil && capture != nil {
			rec.derive(0, capture, c.spec.Network)
		}
		failure := ""
		switch {
		case err != nil:
			failure = fmt.Sprintf("%s/%s: direct run: %v", c.spec.App, c.spec.Dataset, err)
		case !apps.ReplaySafe(res.Entry.App):
		case r.Messages != rep.Trials[0].Messages || r.Bytes != rep.Trials[0].Bytes:
			failure = fmt.Sprintf("%s/%s %s/%s/u%d: served msgs/bytes %d/%d, direct run %d/%d",
				c.spec.App, c.spec.Dataset, c.spec.Protocol, c.spec.Network, c.spec.UnitPages,
				rep.Trials[0].Messages, rep.Trials[0].Bytes, r.Messages, r.Bytes)
		}
		chk.op(failure)
	}
}

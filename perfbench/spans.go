package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// span is one host-clock interval recorded around a call into a layer.
// Op is the cell or request the span belongs to; Parent is the span
// that caused it (0 for a root). Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Proc   int    `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keptPerKind bounds the fault, barrier and lock spans kept per
// simulated processor and cell: a 1024-processor cell fires millions
// of hooks, so beyond the first few only their sums and counts are
// kept. Nesting is checked for every one of them as it closes.
const keptPerKind = 8

// recorder keeps a traced run's spans in memory and writes them out
// when the run ends. It also accumulates the per-layer totals the
// traced run reports.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	nested int // spans checked against their parent
	broken []string
	layer  layerTotals
	// msgsBySpec collects the simulated message counts of each
	// schedule-sensitive cell, keyed by its configuration, across
	// every repeat the run executes.
	msgsBySpec map[string][]int
}

// layerTotals are the traced run's host-time sums and event counts.
type layerTotals struct {
	newSystemNS, runNS, checkNS, computeNS int64
	faultNS, barrierNS, lockNS, dynRunNS   int64
	faults, barriers, lockAcquires         int64
	twins, diffs, msgs                     int64
	// MemSink.Derive calls, their failures, the events they walked and
	// their host time.
	derives, deriveFails, deriveEvents, deriveNS int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), msgsBySpec: map[string][]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns it; end closes and records it. An op
// of 0 makes the span the root of an operation of its own.
func (r *recorder) begin(name string, parent, op int64) span {
	s := span{ID: r.nextID.Add(1), Parent: parent, Op: op, Name: name, Proc: -1, Start: r.now()}
	if op == 0 {
		s.Op = s.ID
	}
	return s
}

func (r *recorder) end(s span) span {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// within records a nesting check of child inside [start, end].
func (r *recorder) within(child span, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nested++
	if child.Start < start || child.End > end {
		r.broken = append(r.broken, fmt.Sprintf("span %s (proc %d) [%d,%d] escapes its parent [%d,%d]",
			child.Name, child.Proc, child.Start, child.End, start, end))
	}
}

// checkNesting verifies that every recorded span with a parent lies
// inside it, and returns the number of violations.
func (r *recorder) checkNesting() int {
	r.mu.Lock()
	byID := make(map[int64]span, len(r.spans))
	for _, s := range r.spans {
		byID[s.ID] = s
	}
	spans := r.spans
	r.mu.Unlock()
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			r.mu.Lock()
			r.nested++
			r.broken = append(r.broken, fmt.Sprintf("span %s has no recorded parent %d", s.Name, s.Parent))
			r.mu.Unlock()
			continue
		}
		r.within(s, p.Start, p.End)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.broken)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procSlot is one simulated processor's hook state. Each processor's
// hooks fire only from its own goroutine, so a slot needs no lock; the
// padding keeps neighbouring slots off one cache line.
type procSlot struct {
	run                        span
	faultAt, barrierAt, lockAt int64
	faultNS, barrierNS, lockNS int64
	faults, barriers, acquires int64
	keptF, keptB, keptL        int
	kept                       []span
	// closed counts the hook spans closed; first and last bound their
	// starts and ends, which must lie inside the run span.
	closed      int
	first, last int64
	_           [64]byte
}

// procSink is the benchmark's trace.Sink: it records host-clock spans
// at the fault, barrier and lock hooks of one engine run. It ignores
// the pricing events.
type procSink struct {
	rec   *recorder
	op    int64
	slots []procSlot
}

var _ trace.Sink = (*procSink)(nil)

func newProcSink(rec *recorder, op int64, procs int) *procSink {
	return &procSink{rec: rec, op: op, slots: make([]procSlot, procs)}
}

func (ps *procSink) close(sl *procSlot, name string, p int, start int64, sum, count *int64, kept *int) {
	end := ps.rec.now()
	*sum += end - start
	*count++
	if sl.closed == 0 || start < sl.first {
		sl.first = start
	}
	sl.last = max(sl.last, end)
	sl.closed++
	if *kept < keptPerKind {
		*kept++
		sl.kept = append(sl.kept, span{ID: ps.rec.nextID.Add(1), Parent: sl.run.ID, Op: ps.op,
			Name: name, Proc: p, Start: start, End: end})
	}
}

func (ps *procSink) Begin(trace.RunMeta) {}
func (ps *procSink) TraceLeg(simnet.MsgKind, int, int, int, sim.Duration, sim.Duration) {
}
func (ps *procSink) TraceControl(simnet.MsgKind, int, int, int, sim.Duration, sim.Duration) {
}
func (ps *procSink) TraceExchange(simnet.MsgKind, simnet.MsgKind, int, int, int, int, sim.Duration, netmodel.ExchangeTiming) {
}
func (ps *procSink) BarrierEnter(p int, _ sim.Duration) { ps.slots[p].barrierAt = ps.rec.now() }
func (ps *procSink) BarrierLeave(p, _ int, _ sim.Duration) {
	sl := &ps.slots[p]
	ps.close(sl, "tmk.barrier", p, sl.barrierAt, &sl.barrierNS, &sl.barriers, &sl.keptB)
}
func (ps *procSink) LockRequest(p, _ int, _ sim.Duration) { ps.slots[p].lockAt = ps.rec.now() }
func (ps *procSink) LockAcquire(p, _ int, _ sim.Duration) {
	sl := &ps.slots[p]
	if sl.lockAt == 0 {
		// A cached grant: the processor was the last holder and took
		// the lock back locally, with no request and no wait.
		sl.acquires++
		return
	}
	ps.close(sl, "tmk.lock", p, sl.lockAt, &sl.lockNS, &sl.acquires, &sl.keptL)
	sl.lockAt = 0
}
func (ps *procSink) LockRelease(int, int, sim.Duration) {}
func (ps *procSink) FaultBegin(p, _, _ int, _ sim.Duration) {
	ps.slots[p].faultAt = ps.rec.now()
}
func (ps *procSink) FaultEnd(p, _ int, _ sim.Duration) {
	sl := &ps.slots[p]
	ps.close(sl, "tmk.fault", p, sl.faultAt, &sl.faultNS, &sl.faults, &sl.keptF)
}
func (ps *procSink) ProtocolSwitch(int, string, string, int) {}
func (ps *procSink) Rehome(int, int, int, int, bool)         {}
func (ps *procSink) RunEnd(sim.Duration, int64, int64, sim.Duration, []sim.Duration) {
}

// tracedCell runs one cell through the layers' public entry points —
// apps.NewSystem, System.Run and Workload.Check — wrapping each call,
// and each simulated processor's body, in spans. capture, when
// non-nil, is teed beside the span sink. key names the cell's
// configuration for the schedule-spread ledger.
func (r *recorder) tracedCell(parent int64, key string, w apps.Workload, cfg tmk.Config, capture trace.Sink) (*tmk.Result, error) {
	cell := r.begin("cell", parent, 0)
	ps := newProcSink(r, cell.ID, cfg.Procs)
	cfg.Sink = ps
	if capture != nil {
		cfg.Sink = trace.Tee(ps, capture)
	}

	ns := r.begin("apps.NewSystem", cell.ID, cell.ID)
	sys, err := apps.NewSystem(w, cfg)
	ns = r.end(ns)
	if err != nil {
		r.end(cell)
		return nil, err
	}

	run := r.begin("tmk.System.Run", cell.ID, cell.ID)
	res := sys.Run(func(p *tmk.Proc) {
		sl := &ps.slots[p.ID()]
		sl.run = span{ID: r.nextID.Add(1), Parent: run.ID, Op: cell.ID, Name: "proc.run", Proc: p.ID(), Start: r.now()}
		w.Body(p)
		sl.run.End = r.now()
	})
	run = r.end(run)

	chk := r.begin("apps.Workload.Check", cell.ID, cell.ID)
	err = w.Check()
	chk = r.end(chk)
	r.end(cell)

	var t layerTotals
	r.mu.Lock()
	for p := range ps.slots {
		sl := &ps.slots[p]
		r.spans = append(r.spans, sl.run)
		if len(r.spans) < maxKeptSpans {
			r.spans = append(r.spans, sl.kept...)
		}
		// Every hook span, kept or not, must sit inside its processor's
		// run span; the kept ones are checked again against their
		// recorded parent by checkNesting.
		r.nested += sl.closed
		if sl.closed > 0 && (sl.first < sl.run.Start || sl.last > sl.run.End) {
			r.broken = append(r.broken, fmt.Sprintf("cell %d proc %d: hook spans [%d,%d] escape the run span [%d,%d]",
				cell.ID, p, sl.first, sl.last, sl.run.Start, sl.run.End))
		}
		self := (sl.run.End - sl.run.Start) - sl.faultNS - sl.barrierNS - sl.lockNS
		t.computeNS += self
		t.faultNS += sl.faultNS
		t.barrierNS += sl.barrierNS
		t.lockNS += sl.lockNS
		t.faults += sl.faults
		t.barriers += sl.barriers
		t.lockAcquires += sl.acquires
	}
	t.newSystemNS = ns.End - ns.Start
	t.runNS = run.End - run.Start
	t.checkNS = chk.End - chk.Start
	if cfg.Dynamic {
		t.dynRunNS = t.runNS
	}
	t.twins = int64(res.Twins)
	t.diffs = int64(res.DiffsEncoded)
	t.msgs = int64(res.Messages)
	r.layer.add(t)
	if !apps.ReplaySafe(w.Name()) {
		r.msgsBySpec[key] = append(r.msgsBySpec[key], res.Messages)
	}
	r.mu.Unlock()
	return res, err
}

// maxKeptSpans caps the spans a traced run keeps in memory.
const maxKeptSpans = 1 << 20

func (t *layerTotals) add(o layerTotals) {
	t.newSystemNS += o.newSystemNS
	t.runNS += o.runNS
	t.checkNS += o.checkNS
	t.computeNS += o.computeNS
	t.faultNS += o.faultNS
	t.barrierNS += o.barrierNS
	t.lockNS += o.lockNS
	t.dynRunNS += o.dynRunNS
	t.faults += o.faults
	t.barriers += o.barriers
	t.lockAcquires += o.lockAcquires
	t.twins += o.twins
	t.diffs += o.diffs
	t.msgs += o.msgs
	t.derives += o.derives
	t.deriveFails += o.deriveFails
	t.deriveEvents += o.deriveEvents
	t.deriveNS += o.deriveNS
}

// derive prices one network from a capture inside a span.
func (r *recorder) derive(parent int64, ms *trace.MemSink, network string) (*trace.Derived, bool) {
	s := r.begin("trace.MemSink.Derive", parent, parent)
	d, err := ms.Derive(network)
	s = r.end(s)
	t := layerTotals{derives: 1, deriveNS: s.End - s.Start, deriveEvents: int64(ms.Len())}
	if err != nil {
		t.deriveFails = 1
	}
	r.mu.Lock()
	r.layer.add(t)
	r.mu.Unlock()
	return d, err == nil
}

// schedSpread returns the largest max − min message count across the
// repeats of any one schedule-sensitive cell.
func (r *recorder) schedSpread() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	worst := 0
	for _, ms := range r.msgsBySpec {
		lo, hi := ms[0], ms[0]
		for _, m := range ms {
			lo, hi = min(lo, m), max(hi, m)
		}
		worst = max(worst, hi-lo)
	}
	return worst
}

// layerMetrics renders the engine-side totals as per-layer metrics.
func (r *recorder) layerMetrics(m map[string]float64) {
	r.mu.Lock()
	t := r.layer
	r.mu.Unlock()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m["apps.check_s"] = sec(t.checkNS)
	m["apps.compute_s"] = sec(t.computeNS)
	m["tmk.newsystem_s"] = sec(t.newSystemNS)
	m["tmk.run_s"] = sec(t.runNS)
	if t.msgs > 0 {
		m["tmk.host_ns_per_msg"] = float64(t.runNS) / float64(t.msgs)
	}
	m["tmk.fault_s"] = sec(t.faultNS)
	m["tmk.faults"] = float64(t.faults)
	m["tmk.barrier_s"] = sec(t.barrierNS)
	m["tmk.barriers"] = float64(t.barriers)
	m["tmk.lock_s"] = sec(t.lockNS)
	m["tmk.lock_acquires"] = float64(t.lockAcquires)
	m["tmk.twins"] = float64(t.twins)
	m["tmk.diffs"] = float64(t.diffs)
	m["tmk.sched_spread_msgs"] = float64(r.schedSpread())
	m["aggregate.dyn_run_s"] = sec(t.dynRunNS)
	m["trace.derive_s"] = sec(t.deriveNS)
	if t.deriveEvents > 0 {
		m["trace.derive_ns_per_event"] = float64(t.deriveNS) / float64(t.deriveEvents)
	}
	if t.derives > 0 {
		m["trace.derive_fail_frac"] = float64(t.deriveFails) / float64(t.derives)
	}
}

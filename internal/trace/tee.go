package trace

import (
	"sync"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Tee returns a Sink that forwards every event to a then b. It lets
// two capture paths observe the same run — the expsvc flight recorder
// (a shared JSONL *Run) alongside the compact *MemSink kept for
// replay-derived serving. Both sides see events in one order: each
// event reaches a and b under the tee's lock, so processor-local hooks
// (barrier, lock, fault) racing on different goroutines cannot arrive
// at the two sinks in different orders. Neither side may block, per the
// Sink contract.
func Tee(a, b Sink) Sink { return &tee{a: a, b: b} }

type tee struct {
	mu   sync.Mutex
	a, b Sink
}

var _ Sink = (*tee)(nil)

func (t *tee) Begin(meta RunMeta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.Begin(meta)
	t.b.Begin(meta)
}

func (t *tee) TraceLeg(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.TraceLeg(kind, src, dst, bytes, at, queue)
	t.b.TraceLeg(kind, src, dst, bytes, at, queue)
}

func (t *tee) TraceControl(kind simnet.MsgKind, src, dst, bytes int, at, queue sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.TraceControl(kind, src, dst, bytes, at, queue)
	t.b.TraceControl(kind, src, dst, bytes, at, queue)
}

func (t *tee) TraceExchange(reqKind, repKind simnet.MsgKind, src, dst, reqBytes, replyBytes int, at sim.Duration, tm netmodel.ExchangeTiming) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.TraceExchange(reqKind, repKind, src, dst, reqBytes, replyBytes, at, tm)
	t.b.TraceExchange(reqKind, repKind, src, dst, reqBytes, replyBytes, at, tm)
}

func (t *tee) BarrierEnter(p int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.BarrierEnter(p, at)
	t.b.BarrierEnter(p, at)
}

func (t *tee) BarrierLeave(p, episode int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.BarrierLeave(p, episode, at)
	t.b.BarrierLeave(p, episode, at)
}

func (t *tee) LockRequest(p, l int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.LockRequest(p, l, at)
	t.b.LockRequest(p, l, at)
}

func (t *tee) LockAcquire(p, l int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.LockAcquire(p, l, at)
	t.b.LockAcquire(p, l, at)
}

func (t *tee) LockRelease(p, l int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.LockRelease(p, l, at)
	t.b.LockRelease(p, l, at)
}

func (t *tee) FaultBegin(p, page, unit int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.FaultBegin(p, page, unit, at)
	t.b.FaultBegin(p, page, unit, at)
}

func (t *tee) FaultEnd(p, page int, at sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.FaultEnd(p, page, at)
	t.b.FaultEnd(p, page, at)
}

func (t *tee) ProtocolSwitch(u int, from, to string, phase int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.ProtocolSwitch(u, from, to, phase)
	t.b.ProtocolSwitch(u, from, to, phase)
}

func (t *tee) Rehome(u, from, to, bytes int, transfer bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.Rehome(u, from, to, bytes, transfer)
	t.b.Rehome(u, from, to, bytes, transfer)
}

func (t *tee) RunEnd(time sim.Duration, msgs, bytes int64, queue sim.Duration, clocks []sim.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.a.RunEnd(time, msgs, bytes, queue, clocks)
	t.b.RunEnd(time, msgs, bytes, queue, clocks)
}

package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestEventRoundTrip pins the schema's wire round-trip: a fully
// populated event of every type written through the Writer must decode
// back to an equal struct. The single-struct Event design makes plain
// equality the whole check.
func TestEventRoundTrip(t *testing.T) {
	cost := sim.DefaultCostModel()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.SetLabel("Jacobi", "small")
	run := w.BeginRun(trace.RunMeta{
		Protocol: "adaptive", Network: "bus", Placement: "migrate",
		Procs: 8, UnitPages: 2, Dynamic: true, Cost: &cost,
	})
	run.TraceLeg(simnet.DiffRequest, 0, 1, 64, 100, 7)
	run.TraceControl(simnet.BarrierArrive, 1, 0, 16, 200, 3)
	run.TraceExchange(simnet.DiffRequest, simnet.DiffReply, 2, 3, 32, 4096, 300,
		netmodel.ExchangeTiming{
			Request: netmodel.Timing{Total: 50, Queue: 5},
			Reply:   netmodel.Timing{Total: 90, Queue: 9},
			Service: 30,
		})
	run.BarrierEnter(4, 400)
	run.BarrierLeave(4, 2, 500)
	run.LockAcquire(5, 3, 600)
	run.LockRelease(5, 3, 700)
	run.FaultBegin(6, 42, 21, 800)
	run.FaultEnd(6, 42, 900)
	run.ProtocolSwitch(7, "home", "homeless", 3)
	run.Rehome(9, 1, 2, 8192, true)
	run.End(12345, 678, 90123, 456)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != trace.Version {
		t.Fatalf("version = %d, want %d", r.Version(), trace.Version)
	}
	want := []trace.Event{
		{E: trace.EvRunStart, R: 1, App: "Jacobi", Dataset: "small",
			Protocol: "adaptive", Network: "bus", Placement: "migrate",
			Procs: 8, UnitPages: 2, Dynamic: true, Cost: &cost},
		{E: trace.EvLeg, R: 1, K: "DiffRequest", S: 0, D: 1, B: 64, At: 100, Q: 7},
		{E: trace.EvControl, R: 1, K: "BarrierArrive", S: 1, D: 0, B: 16, At: 200, Q: 3},
		{E: trace.EvExchange, R: 1, K: "DiffRequest", RK: "DiffReply", S: 2, D: 3, B: 32, RB: 4096, At: 300, Q: 5, RQ: 9},
		{E: trace.EvBarrierEnter, R: 1, P: 4, At: 400},
		{E: trace.EvBarrierLeave, R: 1, P: 4, N: 2, At: 500},
		{E: trace.EvLockAcquire, R: 1, P: 5, L: 3, At: 600},
		{E: trace.EvLockRelease, R: 1, P: 5, L: 3, At: 700},
		{E: trace.EvFaultBegin, R: 1, P: 6, Pg: 42, U: 21, At: 800},
		{E: trace.EvFaultEnd, R: 1, P: 6, Pg: 42, At: 900},
		{E: trace.EvSwitch, R: 1, U: 7, FromName: "home", ToName: "homeless", N: 3},
		{E: trace.EvRehome, R: 1, U: 9, FromHome: 1, ToHome: 2, B: 8192, Transfer: true},
		{E: trace.EvRunEnd, R: 1, Time: 12345, Msgs: 678, Bytes: 90123, Queue: 456},
	}
	for i, wantEv := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !reflect.DeepEqual(*got, wantEv) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, *got, wantEv)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("trailing Next() error = %v, want io.EOF", err)
	}
}

// TestReaderToleratesUnknownFields pins forward compatibility: a trace
// written by a future same-major writer with extra fields must still
// parse, with the known fields intact.
func TestReaderToleratesUnknownFields(t *testing.T) {
	in := `{"e":"header","v":1,"written_by":"future"}
{"e":"run_start","r":1,"network":"ideal","procs":4,"shiny_new_field":[1,2,3]}
{"e":"leg","r":1,"k":"DiffRequest","s":0,"d":1,"b":64,"at":10,"q":0,"hw_timestamp":99}
{"e":"run_end","r":1,"msgs":1,"bytes":64}
`
	r, err := trace.NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var events []*trace.Event
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[1].B != 64 || events[1].K != "DiffRequest" {
		t.Fatalf("leg fields lost: %+v", events[1])
	}
}

// TestReaderRejectsNewerVersion: an incompatible (higher-version)
// header must refuse loudly, not misparse.
func TestReaderRejectsNewerVersion(t *testing.T) {
	in := fmt.Sprintf(`{"e":"header","v":%d}`+"\n", trace.Version+1)
	if _, err := trace.NewReader(strings.NewReader(in)); err == nil {
		t.Fatal("want error for newer schema version")
	}
}

// failAfter fails every Write after the first n.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

// TestWriterStickyError pins the partial-trace guard: once a write
// fails, Close (and Err) must report it, so callers cannot ship a
// silently truncated capture.
func TestWriterStickyError(t *testing.T) {
	w := trace.NewWriter(&failAfter{n: 2}) // header + run_start succeed
	run := w.BeginRun(trace.RunMeta{Network: "ideal"})
	run.TraceLeg(simnet.DiffRequest, 0, 1, 64, 0, 0) // fails, sticks
	run.End(0, 1, 64, 0)                             // dropped
	if err := w.Close(); err == nil {
		t.Fatal("Close() = nil after a failed write; partial traces must fail loudly")
	}
}

// TestRingWindow pins the flight recorder: a ring keeps the newest
// capacity lines, counts evictions, and Dump re-synthesizes a header so
// the window is always readable.
func TestRingWindow(t *testing.T) {
	ring := trace.NewRing(4)
	w := trace.NewWriter(ring)
	run := w.BeginRun(trace.RunMeta{Network: "ideal", Procs: 2})
	for i := 0; i < 10; i++ {
		run.TraceLeg(simnet.DiffRequest, 0, 1, 100+i, sim.Duration(i), 0)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ring.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", ring.Len())
	}
	// 12 lines written (header, run_start, 10 legs) minus 4 retained.
	if ring.Dropped() != 8 {
		t.Fatalf("Dropped() = %d, want 8", ring.Dropped())
	}

	var dump bytes.Buffer
	if err := ring.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatalf("dump must start with a readable header: %v", err)
	}
	var got []int
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev.B)
	}
	want := []int{106, 107, 108, 109} // the newest four legs, oldest first
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window bytes = %v, want %v", got, want)
	}
}

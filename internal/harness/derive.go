package harness

// Replay-derived sweep cells: the network-sensitivity grid re-prices
// one application under every interconnect model, but for replay-safe
// applications (apps.ReplaySafe) the message stream itself is network-
// invariant — only the pricing changes. So the grid executor groups a
// batch's cells into families that differ only in network, executes ONE
// traced engine run per family on the canonical network, and derives
// every other interconnect's cell by re-pricing the captured stream
// (trace.MemSink.Derive), falling back to real execution per cell
// whenever a soundness check refuses.
//
// Soundness:
//   - Static protocols (homeless, home): the stream is invariant, and
//     Derive self-verifies — its base-model half must reproduce the
//     recorded totals and every reconstructed synchronization join
//     time bit-identically, or it errors and the cell runs for real.
//   - Adaptive: the per-unit policy consults the network (mean queue
//     delay per message) at each barrier episode, so the stream is
//     only conditionally invariant. A target cell is derived from the
//     homeless twin's capture when the contention gate stays closed at
//     every episode under target pricing (the policy never leaves its
//     initial homeless mode), or from a real adaptive capture on the
//     canonical contended base when the per-episode gate verdicts
//     under target pricing match the base run's (the policy would have
//     made identical switch decisions). Anything else runs for real.
//   - Schedule-sensitive applications (lock contenders: TSP, Water)
//     never derive — their stream describes one schedule, not the app.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/trace"
)

// deriveBaseNetwork is the canonical network the traced base cells run
// on: the contention-free model is the cheapest to execute and its
// capture derives every other model equally well.
const deriveBaseNetwork = "ideal"

// deriveContendedBase is the network the adaptive protocol's real
// traced base runs on when some target opens the contention gate.
const deriveContendedBase = "bus"

var netDerivation atomic.Bool

func init() { netDerivation.Store(true) }

// SetNetworkDerivation toggles replay-derivation of network-sweep
// cells and returns the previous setting. Derivation is on by default;
// equivalence tests and the CLI's escape hatch turn it off to force
// every cell through the engine.
func SetNetworkDerivation(on bool) (prev bool) { return netDerivation.Swap(on) }

// NetworkDerivation reports whether network sweeps derive cells by
// replay (see SetNetworkDerivation).
func NetworkDerivation() bool { return netDerivation.Load() }

// Derivable reports whether a cell's result may be priced by replaying
// a capture of the same cell on another network. It is the one
// eligibility rule the grid planner and the experiment service share:
// a replay-safe application (apps.ReplaySafe), a static protocol, and
// no instrumentation (Stats cannot be re-priced). The planner also
// derives an adaptive cell when its homeless twin is Derivable, under
// the gate checks below.
func Derivable(app, protocol string, collect bool) bool {
	return apps.ReplaySafe(app) && protocol != "adaptive" && !collect
}

// twinProtocol is the protocol whose capture a cell derives from: its
// own, except that an adaptive cell derives from its homeless twin.
func twinProtocol(protocol string) string {
	if protocol == "adaptive" {
		return "homeless"
	}
	return protocol
}

// familyKey identifies a derivation family: the cells of one batch
// that differ only in network, together with the adaptive cells whose
// homeless twin they are. One task derives a whole family.
type familyKey struct {
	app, dataset string
	procs        int
	c            Config
}

func familyOf(g gridCell) familyKey {
	c := g.c
	c.Label, c.Network, c.Protocol = "", "", twinProtocol(c.Protocol)
	return familyKey{g.e.App, g.e.Dataset, g.procs, c}
}

// derivedFrom assembles a derived cell: re-priced time and totals from
// the derivation, protocol/placement accounting copied from the base
// run (those are stream facts — unit switches, home moves — identical
// by the same invariance that makes the derivation sound).
func derivedFrom(base Cell, d *trace.Derived) Cell {
	return Cell{
		Time: d.Time, Queue: d.Queue,
		Msgs: int(d.Msgs), Bytes: int(d.Bytes),
		SwitchedUnits: base.SwitchedUnits,
		Rehomes:       base.Rehomes,
		RehomeBytes:   base.RehomeBytes,
		HandoffBytes:  base.HandoffBytes,
		Derived:       true,
	}
}

// capture pairs one traced base run with a per-network derivation
// memo: the homeless column and the adaptive quiet check ask for the
// same (capture, network) derivations, and each walk over a large
// capture is worth not repeating.
type capture struct {
	ms    *trace.MemSink
	cell  Cell
	memo  map[string]*trace.Derived
	fails map[string]bool
}

func newCapture(ms *trace.MemSink, cell Cell) *capture {
	return &capture{ms: ms, cell: cell,
		memo: map[string]*trace.Derived{}, fails: map[string]bool{}}
}

func (c *capture) derive(network string) (*trace.Derived, bool) {
	if d, ok := c.memo[network]; ok {
		return d, true
	}
	if c.fails[network] {
		return nil, false
	}
	d, err := c.ms.Derive(network)
	if err != nil {
		c.fails[network] = true
		return nil, false
	}
	c.memo[network] = d
	return d, true
}

// deriveStatic prices one target network from a static-protocol base
// capture. ok=false means the derivation refused (Derive's base-half
// integrity check failed) and the caller must run the cell for real.
func deriveStatic(cp *capture, network string) (Cell, bool) {
	if network == cp.ms.Meta().Network {
		return cp.cell, true // the capture itself is this cell
	}
	d, ok := cp.derive(network)
	if !ok {
		return Cell{}, false
	}
	return derivedFrom(cp.cell, d), true
}

// adaptiveQuiet derives an adaptive cell from its homeless twin's
// capture: with the contention gate closed at every barrier episode
// under target pricing, the adaptive protocol never leaves its initial
// homeless mode and the two protocols run the same stream.
func adaptiveQuiet(cp *capture, network string) (Cell, bool) {
	d, ok := cp.derive(network)
	if !ok {
		return Cell{}, false
	}
	for _, open := range d.Gate {
		if open {
			return Cell{}, false
		}
	}
	return derivedFrom(cp.cell, d), true
}

// adaptiveContended derives an adaptive cell from a real adaptive
// capture on the contended base network: if the gate verdict sequence
// under target pricing matches the base run's, the policy would have
// made the same per-episode switch decisions, so the recorded stream
// is the target's stream too.
func adaptiveContended(cp *capture, network string) (Cell, bool) {
	if network == cp.ms.Meta().Network {
		return cp.cell, true
	}
	d, ok := cp.derive(network)
	if !ok || len(d.Gate) != len(d.BaseGate) {
		return Cell{}, false
	}
	for i := range d.Gate {
		if d.Gate[i] != d.BaseGate[i] {
			return Cell{}, false
		}
	}
	return derivedFrom(cp.cell, d), true
}

// deriveFamily derives one family — cells[m] for each m in members —
// into out[m]. Static members derive from one traced base run on the
// canonical network; adaptive members derive from that same capture
// (their homeless twin's) when quiet, else from one real adaptive
// capture on the contended base. Any member a rule refuses runs for
// real.
func deriveFamily(cells []gridCell, members []int, out []Cell) error {
	var ideal, bus *capture
	base := func(cp **capture, g gridCell, protocol, network string) error {
		if *cp != nil {
			return nil
		}
		c := g.c
		c.Protocol, c.Network = protocol, network
		ms := trace.NewMemSink()
		cell, err := runCell(g.e, c, g.procs, false, ms)
		if err != nil {
			return fmt.Errorf("network %s (derivation base): %w", network, err)
		}
		*cp = newCapture(ms, cell)
		return nil
	}
	for _, m := range members {
		g := cells[m]
		var cell Cell
		ok := false
		switch {
		case g.c.Protocol != "adaptive":
			if err := base(&ideal, g, g.c.Protocol, deriveBaseNetwork); err != nil {
				return err
			}
			cell, ok = deriveStatic(ideal, g.c.Network)
		case g.c.Barrier != "tree":
			// The gate verdicts come from central-barrier episodes
			// only, so tree-fabric adaptive cells run for real.
			if err := base(&ideal, g, "homeless", deriveBaseNetwork); err != nil {
				return err
			}
			if cell, ok = adaptiveQuiet(ideal, g.c.Network); !ok {
				if err := base(&bus, g, "adaptive", deriveContendedBase); err != nil {
					return err
				}
				cell, ok = adaptiveContended(bus, g.c.Network)
			}
		}
		if !ok {
			var err error
			if cell, err = runCell(g.e, g.c, g.procs, false, nil); err != nil {
				return g.wrap(err)
			}
		}
		out[m] = cell
	}
	return nil
}

package harness

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// withinFrac fails unless a and b agree to the given relative
// tolerance (zero-vs-zero passes).
func withinFrac(t *testing.T, what string, a, b sim.Duration, frac float64) {
	t.Helper()
	hi := a
	if b > hi {
		hi = b
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > frac*float64(hi) {
		t.Errorf("%s: derived %v vs real %v exceeds %.1f%% tolerance",
			what, a, b, 100*frac)
	}
}

// TestDerivedNetworkGridMatchesReal is the replay-safety equivalence
// matrix: every registered application (the paper's eight plus the
// storm stressor) across the contention-free baseline and both
// contended fabrics, derived grid against the same grid forced through
// the engine. For replay-safe apps the derived message and byte totals
// must be bit-identical and times must sit within the pricing-order
// tolerance; schedule-sensitive apps must never report a derived cell
// (the fallback path ran them for real).
func TestDerivedNetworkGridMatchesReal(t *testing.T) {
	networks := []string{"ideal", "bus", "switch"}
	var es []Experiment
	for _, app := range apps.Apps() {
		es = append(es, exp(app, "small"))
	}

	if !NetworkDerivation() {
		t.Fatal("network derivation must default on")
	}
	derived, err := RunNetworkComparison(es, Procs, networks)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetNetworkDerivation(false)
	defer SetNetworkDerivation(prev)
	real, err := RunNetworkComparison(es, Procs, networks)
	if err != nil {
		t.Fatal(err)
	}

	for i, e := range es {
		safe := apps.ReplaySafe(e.App)
		nDerived := 0
		for ri, row := range derived[i].Rows {
			for ci, dc := range row.Cells {
				rc := real[i].Rows[ri].Cells[ci]
				name := e.App + "/" + row.Network + "/" + dc.Protocol + "/" + dc.Config
				if rc.Cell.Derived {
					t.Fatalf("%s: forced-real grid reports a derived cell", name)
				}
				if dc.Cell.Derived {
					nDerived++
				}
				if !safe {
					if dc.Cell.Derived {
						t.Errorf("%s: schedule-sensitive app must not derive", name)
					}
					// Totals wobble between real runs of these apps —
					// that is exactly why they are not derivable — so
					// there is nothing further to compare.
					continue
				}
				if dc.Cell.Msgs != rc.Cell.Msgs || dc.Cell.Bytes != rc.Cell.Bytes {
					t.Errorf("%s: derived msgs/bytes %d/%d != real %d/%d",
						name, dc.Cell.Msgs, dc.Cell.Bytes, rc.Cell.Msgs, rc.Cell.Bytes)
				}
				if dc.Cell.SwitchedUnits != rc.Cell.SwitchedUnits {
					t.Errorf("%s: derived switched units %d != real %d",
						name, dc.Cell.SwitchedUnits, rc.Cell.SwitchedUnits)
				}
				// Time and queue re-create the recorded pricing order.
				// On contended models a fresh engine run wobbles by a
				// few percent against ANOTHER fresh run (within-episode
				// arrival order follows goroutine scheduling), so these
				// bounds cover real-vs-real spread too: observed worst
				// ~2.3% time (MGS home/bus) and ~8% queue (Shallow/bus),
				// with the race detector's much coarser goroutine
				// interleaving pushing wobble to ~8% time
				// (Jacobi home/switch) and ~16% queue.
				withinFrac(t, name+" time", dc.Cell.Time, rc.Cell.Time, 0.10)
				withinFrac(t, name+" queue", dc.Cell.Queue, rc.Cell.Queue, 0.25)
			}
		}
		if safe && nDerived == 0 {
			t.Errorf("%s: replay-safe app derived no cells", e.App)
		}
	}
}

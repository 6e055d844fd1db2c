package harness

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
)

// TestExecute pins the grid executor's contract: results in input
// order, one engine run per distinct cell, network families derived
// from one base run, and errors prefixed with the failing cell's axis.
func TestExecute(t *testing.T) {
	jacobi := exp("Jacobi", "small")
	var runs atomic.Int32
	counted := jacobi
	counted.Make = func(procs int) apps.Workload {
		runs.Add(1)
		return jacobi.Make(procs)
	}
	at := func(c Config, axis string) gridCell {
		return gridCell{e: counted, c: c, procs: Procs, axis: axis}
	}
	u1 := Config{Label: "4K", Unit: 1}
	u2 := Config{Label: "8K", Unit: 2}
	u4 := Config{Label: "16K", Unit: 4}
	ideal := Config{Label: "4K", Unit: 1, Protocol: "homeless", Network: "ideal"}
	bus := ideal
	bus.Network = "bus"
	bogus := Config{Label: "4K", Unit: 1, Protocol: "home", Placement: "nearest"}

	tests := []struct {
		name  string
		cells []gridCell
		mode  execMode
		runs  int32
		// same lists the input indices that must share a result; the
		// first cell of each class differs from every other class.
		same    [][]int
		derived []bool
		wantErr string
	}{
		{
			name:  "input order with repeated keys",
			cells: []gridCell{at(u4, ""), at(u1, ""), at(u1, ""), at(u4, ""), at(u2, "")},
			mode:  execReal, runs: 3,
			same: [][]int{{0, 3}, {1, 2}, {4}},
		},
		{
			name:  "same key runs once",
			cells: []gridCell{at(u1, "a"), at(u1, "b")},
			mode:  execTimed, runs: 1,
			same: [][]int{{0, 1}},
		},
		{
			name:  "network family derives from one base run",
			cells: []gridCell{at(bus, "network bus"), at(ideal, "network ideal")},
			mode:  execDerive, runs: 1,
			derived: []bool{true, false},
		},
		{
			name:    "error names the cell's axis",
			cells:   []gridCell{at(u1, "network ideal"), at(bogus, "placement nearest/home")},
			mode:    execReal,
			wantErr: "placement nearest/home: ",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			runs.Store(0)
			out, walls, err := execute(tc.cells, tc.mode)
			if tc.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want prefix %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := runs.Load(); got != tc.runs {
				t.Errorf("engine runs = %d, want %d", got, tc.runs)
			}
			if len(out) != len(tc.cells) {
				t.Fatalf("results = %d, want %d", len(out), len(tc.cells))
			}
			for ci, class := range tc.same {
				for _, i := range class[1:] {
					if out[i].Msgs != out[class[0]].Msgs || out[i].Time != out[class[0]].Time {
						t.Errorf("cell %d = %+v, want cell %d's %+v", i, out[i], class[0], out[class[0]])
					}
				}
				for _, other := range tc.same[ci+1:] {
					if out[other[0]].Msgs == out[class[0]].Msgs {
						t.Errorf("cells %d and %d share %d msgs; results out of order?",
							class[0], other[0], out[class[0]].Msgs)
					}
				}
			}
			for i, want := range tc.derived {
				if out[i].Derived != want {
					t.Errorf("cell %d derived = %v, want %v", i, out[i].Derived, want)
				}
			}
			if len(walls) != len(out) {
				t.Fatalf("walls = %d, want %d", len(walls), len(out))
			}
			for i, w := range walls {
				if tc.mode == execTimed && w <= 0 {
					t.Errorf("timed cell %d wall = %v", i, w)
				}
			}
		})
	}
}

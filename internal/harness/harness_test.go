package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestConfigsMatchPaper(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 4 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if cfgs[0].Label != "4K" || cfgs[0].Unit != 1 || cfgs[0].Dynamic {
		t.Fatalf("cfg0 = %+v", cfgs[0])
	}
	if cfgs[2].Label != "16K" || cfgs[2].Unit != 4 {
		t.Fatalf("cfg2 = %+v", cfgs[2])
	}
	if !cfgs[3].Dynamic || cfgs[3].Unit != 1 {
		t.Fatalf("cfg3 = %+v", cfgs[3])
	}
}

func TestConfigByLabelAndLabelFor(t *testing.T) {
	for _, c := range Configs() {
		got, ok := ConfigByLabel(c.Label)
		if !ok || got != c {
			t.Fatalf("ConfigByLabel(%q) = %+v, %v", c.Label, got, ok)
		}
		if LabelFor(c.Unit, c.Dynamic) != c.Label {
			t.Fatalf("LabelFor(%d, %v) = %q, want %q",
				c.Unit, c.Dynamic, LabelFor(c.Unit, c.Dynamic), c.Label)
		}
	}
	if got, ok := ConfigByLabel("dyn"); !ok || !got.Dynamic {
		t.Fatalf("ConfigByLabel is not case-insensitive: %+v, %v", got, ok)
	}
	if _, ok := ConfigByLabel("32K"); ok {
		t.Fatal("unknown label must not resolve")
	}
}

func TestExperimentInventory(t *testing.T) {
	if got := len(Figure1()); got != 4 {
		t.Fatalf("figure 1 experiments = %d, want 4", got)
	}
	if got := len(Figure2()); got != 11 {
		t.Fatalf("figure 2 experiments = %d, want 11 (2 Jacobi + 3 FFT + 3 MGS + 3 Shallow)", got)
	}
	if got := len(Table1()); got != 8 {
		t.Fatalf("table 1 rows = %d, want 8 applications", got)
	}
	if got := len(Figure3()); got != 4 {
		t.Fatalf("figure 3 experiments = %d, want 4", got)
	}
	for _, e := range Figure2() {
		if e.Paper == "" {
			t.Fatalf("%s %s missing paper dataset mapping", e.App, e.Dataset)
		}
	}
}

// One full experiment through all four configurations, rendered.
func TestRunAndRenderFigureSmoke(t *testing.T) {
	var buf bytes.Buffer
	e := Figure2()[0] // Jacobi row=1pg: fast
	figs, err := RunFigure([]Experiment{e}, []string{"4K", "8K", "16K", "Dyn"}, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	cells := figs[0]
	RenderFigure(&buf, e, cells)
	out := buf.String()
	for _, want := range []string{"Jacobi", "time", "messages", "piggybacked", "4K", "Dyn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if cells["4K"].Time <= 0 || cells["Dyn"].Stats == nil {
		t.Fatal("cells incomplete")
	}
}

func TestRunTable1Subset(t *testing.T) {
	rows, err := RunTable1(Table1()[5:6], "", "", "") // Jacobi only: fast
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].App != "Jacobi" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Speedup <= 1 {
		t.Fatalf("speedup = %v, want > 1 on 8 processors", rows[0].Speedup)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Speedup") {
		t.Fatal("table header missing")
	}
}

func TestRenderSignature(t *testing.T) {
	e := Figure2()[5] // MGS vec=1pg
	cells := map[string]Cell{}
	for _, label := range []string{"4K", "16K"} {
		unit := 1
		if label == "16K" {
			unit = 4
		}
		c, err := Run(e, Config{Label: label, Unit: unit}, Procs)
		if err != nil {
			t.Fatal(err)
		}
		cells[label] = c
	}
	var buf bytes.Buffer
	RenderSignature(&buf, e, cells)
	out := buf.String()
	if !strings.Contains(out, "4K") || !strings.Contains(out, "16K") {
		t.Fatalf("signature render:\n%s", out)
	}
	// MGS at 16K must show multi-writer buckets.
	if !strings.Contains(out, "[2:") && !strings.Contains(out, "[3:") && !strings.Contains(out, "[4:") {
		t.Fatalf("16K MGS signature has no multi-writer bucket:\n%s", out)
	}
}

// TestRunNetworkComparison sweeps one small experiment across the
// contention-free baseline and one contended model: the ideal rows
// carry zero queue delay, the contended rows carry some and never beat
// the uncontended time, and both text and JSON reports expose the
// queue-delay column.
func TestRunNetworkComparison(t *testing.T) {
	e := exp("Jacobi", "small")
	ncs, err := RunNetworkComparison([]Experiment{e}, Procs, []string{"ideal", "bus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ncs) != 1 || len(ncs[0].Rows) != 2 {
		t.Fatalf("comparison shape: %+v", ncs)
	}
	var idealBase, busBase *Cell
	for i := range ncs[0].Rows {
		row := &ncs[0].Rows[i]
		if len(row.Cells) != len(networkCellConfigs()) {
			t.Fatalf("row %s has %d cells", row.Network, len(row.Cells))
		}
		base := &row.Cells[0].Cell // homeless, 4K
		switch row.Network {
		case "ideal":
			idealBase = base
			for _, c := range row.Cells {
				if c.Cell.Queue != 0 {
					t.Fatalf("ideal cell %s/%s has queue %v", c.Protocol, c.Config, c.Cell.Queue)
				}
			}
		case "bus":
			busBase = base
			if base.Queue <= 0 {
				t.Fatal("bus base cell reports no queue delay")
			}
		}
	}
	if idealBase == nil || busBase == nil {
		t.Fatalf("missing rows: %+v", ncs[0].Rows)
	}
	if busBase.Time < idealBase.Time {
		t.Fatalf("bus time %v beat ideal %v — queuing can only add delay",
			busBase.Time, idealBase.Time)
	}

	var buf bytes.Buffer
	RenderNetworkComparison(&buf, ncs)
	out := buf.String()
	for _, want := range []string{"Network", "Queue(s)", "home×", "dyn×", "ideal", "bus"} {
		if !strings.Contains(out, want) {
			t.Fatalf("network table missing %q:\n%s", want, out)
		}
	}

	j := NetworkComparisonReport(ncs[0])
	if j.App != "Jacobi" || len(j.Rows) != 2 {
		t.Fatalf("json report shape: %+v", j)
	}
	for _, row := range j.Rows {
		for _, c := range row.Cells {
			if row.Network == "bus" && c.Protocol == "homeless" && c.Config == "4K" && c.QueueSeconds <= 0 {
				t.Fatalf("bus json cell missing queue seconds: %+v", c)
			}
		}
	}

	if _, err := RunNetworkComparison([]Experiment{e}, Procs, []string{"token-ring"}); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestRunPlacementComparison(t *testing.T) {
	e := exp("Jacobi", "small")
	pcs, err := RunPlacementComparison([]Experiment{e}, Procs, []string{"rr", "firsttouch"}, []string{"ideal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 1 {
		t.Fatalf("comparison shape: %+v", pcs)
	}
	// One homeless baseline + 2 placements × 2 protocols on one network.
	if len(pcs[0].Cells) != 1+2*len(placementProtocols) {
		t.Fatalf("cell count = %d: %+v", len(pcs[0].Cells), pcs[0].Cells)
	}
	var base, rrHome, ftHome *Cell
	for i := range pcs[0].Cells {
		c := &pcs[0].Cells[i]
		switch {
		case c.Protocol == "homeless":
			base = &c.Cell
		case c.Protocol == "home" && c.Placement == "rr":
			rrHome = &c.Cell
		case c.Protocol == "home" && c.Placement == "firsttouch":
			ftHome = &c.Cell
		}
	}
	if base == nil || rrHome == nil || ftHome == nil {
		t.Fatalf("missing cells: %+v", pcs[0].Cells)
	}
	if rrHome.Rehomes != 0 {
		t.Fatalf("rr rehomed %d times", rrHome.Rehomes)
	}
	if ftHome.Rehomes == 0 {
		t.Fatal("first-touch bound nothing on jacobi (proc 0 initializes every page)")
	}
	if ftHome.RehomeBytes != 0 {
		t.Fatalf("first-touch priced its bindings: %d bytes", ftHome.RehomeBytes)
	}
	if ftHome.Msgs >= rrHome.Msgs {
		t.Fatalf("first-touch (%d msgs) did not cut home traffic vs rr (%d)", ftHome.Msgs, rrHome.Msgs)
	}

	var buf bytes.Buffer
	RenderPlacementComparison(&buf, pcs)
	out := buf.String()
	for _, want := range []string{"Placement", "hless(s)", "home×", "reh", "adapt×", "handKB", "firsttouch", "rr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("placement table missing %q:\n%s", want, out)
		}
	}

	j := PlacementComparisonReport(pcs[0])
	if j.App != "Jacobi" || len(j.Cells) != len(pcs[0].Cells) {
		t.Fatalf("json report shape: %+v", j)
	}
	for _, c := range j.Cells {
		if c.Placement == "" || c.Protocol == "" || c.Network == "" {
			t.Fatalf("json cell missing config echo: %+v", c)
		}
	}

	if _, err := RunPlacementComparison([]Experiment{e}, Procs, []string{"nearest"}, nil); err == nil {
		t.Fatal("unknown placement must error")
	}
	if _, err := RunPlacementComparison([]Experiment{e}, Procs, nil, []string{"token-ring"}); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestRenderMicroCalibration(t *testing.T) {
	var buf bytes.Buffer
	RenderMicro(&buf)
	out := buf.String()
	for _, want := range []string{"296", "861", "round trip", "barrier", "diff fetch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("micro table missing %q:\n%s", want, out)
		}
	}
}

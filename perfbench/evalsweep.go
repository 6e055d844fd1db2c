package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/sweep"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// obs is one simulated cell outcome of a grid, named by the grid and
// its configuration, for the output checks.
type obs struct {
	grid, app, dataset, label    string
	protocol, network, placement string
	procs                        int
	cell                         harness.Cell
	// timeOnly marks an outcome that reports simulated time but no
	// message or byte totals (Table 1's rows).
	timeOnly bool
}

// spec names the cell's configuration without the grid, so repeats of
// one cell across grids share it.
func (o obs) spec() string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%s|p%d",
		o.app, o.dataset, o.label, o.protocol, o.network, o.placement, o.procs)
}

func (o obs) key() string { return o.grid + "|" + o.spec() }

// evalGrid is one of the grids `dsmbench -all` regenerates.
type evalGrid struct {
	name string
	run  func() ([]obs, error)
}

// evalGrids returns every grid dsmbench -all regenerates, calling the
// same harness functions with the same arguments (the paper's
// homeless protocol, ideal network and round-robin homes for Table 1
// and the figures).
func evalGrids() []evalGrid {
	proto, network, placement := tmk.DefaultProtocol, netmodel.Default, tmk.DefaultPlacement
	figure := func(name string, es []harness.Experiment, labels []string) evalGrid {
		return evalGrid{name, func() ([]obs, error) {
			var out []obs
			for _, e := range es {
				for _, label := range labels {
					c, _ := harness.ConfigByLabel(label)
					c.Protocol, c.Network, c.Placement = proto, network, placement
					cell, err := harness.Run(e, c, harness.Procs)
					if err != nil {
						return out, err
					}
					out = append(out, obs{grid: name, app: e.App, dataset: e.Dataset, label: label,
						protocol: proto, network: network, placement: placement, procs: harness.Procs, cell: cell})
				}
			}
			return out, nil
		}}
	}
	return []evalGrid{
		{"table1", func() ([]obs, error) {
			rows, err := harness.RunTable1(harness.Table1(), proto, network, placement)
			var out []obs
			for _, r := range rows {
				base := obs{grid: "table1", app: r.App, dataset: r.Dataset,
					protocol: proto, network: network, placement: placement, timeOnly: true}
				seq, par := base, base
				seq.label, seq.procs, seq.cell.Time = "seq", 1, r.SeqTime
				par.label, par.procs, par.cell.Time = "4K", harness.Procs, r.ParTime
				out = append(out, seq, par)
			}
			return out, err
		}},
		figure("figure1", harness.Figure1(), configLabels()),
		figure("figure2", harness.Figure2(), configLabels()),
		figure("figure3", harness.Figure3(), []string{"4K", "16K"}),
		{"protocols", func() ([]obs, error) {
			pcs, err := harness.RunProtocolComparison(harness.Table1(), harness.Procs)
			var out []obs
			for _, pc := range pcs {
				for _, r := range pc.Rows {
					out = append(out, obs{grid: "protocols", app: pc.App, dataset: pc.Dataset, label: pc.Config,
						protocol: r.Protocol, network: network, placement: placement, procs: harness.Procs, cell: r.Cell})
				}
			}
			return out, err
		}},
		{"networks", func() ([]obs, error) {
			ncs, err := harness.RunNetworkComparison(harness.Table1(), harness.Procs, nil)
			var out []obs
			for _, nc := range ncs {
				for _, row := range nc.Rows {
					for _, c := range row.Cells {
						out = append(out, obs{grid: "networks", app: nc.App, dataset: nc.Dataset, label: c.Config,
							protocol: c.Protocol, network: row.Network, placement: placement, procs: harness.Procs, cell: c.Cell})
					}
				}
			}
			return out, err
		}},
		{"placements", func() ([]obs, error) {
			pcs, err := harness.RunPlacementComparison(harness.Table1(), harness.Procs, nil, nil)
			var out []obs
			for _, pc := range pcs {
				for _, c := range pc.Cells {
					out = append(out, obs{grid: "placements", app: pc.App, dataset: pc.Dataset, label: "4K",
						protocol: c.Protocol, network: c.Network, placement: c.Placement, procs: harness.Procs, cell: c.Cell})
				}
			}
			return out, err
		}},
	}
}

func configLabels() []string {
	var out []string
	for _, c := range harness.Configs() {
		out = append(out, c.Label)
	}
	return out
}

// runEvalSweep makes one untraced pass over every grid. The caller
// times it; it must be the first pass in its process, because each
// application memoizes its sequential reference per process and a
// dsmbench user pays that on every invocation.
func runEvalSweep(grids []evalGrid, chk *checker) {
	for _, g := range grids {
		out, err := g.run()
		chk.observe(out)
		if err != nil {
			chk.fail(fmt.Sprintf("grid %s: %v", g.name, err))
		}
	}
}

// derivedFrac is the share of the networks grid's cells priced by
// replay instead of an engine run.
func derivedFrac(seen []obs) float64 {
	n, d := 0, 0
	for _, o := range seen {
		if o.grid != "networks" {
			continue
		}
		n++
		if o.cell.Derived {
			d++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// --- traced re-execution ------------------------------------------------------

// tracedEval re-executes every grid's cells through the instrumented
// cell runner, with the same parallelism the harness uses: Table 1 and
// the figures run one cell at a time, the comparison grids run on a
// sweep pool. Network cells of replay-safe applications are derived
// from one captured base run per column, as the harness derives them.
type tracedEval struct {
	rec  *recorder
	chk  *checker
	pool *sweep.Pool
}

func (te *tracedEval) cell(parent int64, e harness.Experiment, c harness.Config, procs int, collect bool, capture trace.Sink) (harness.Cell, error) {
	o := obs{app: e.App, dataset: e.Dataset, label: c.Label, protocol: c.Protocol,
		network: c.Network, placement: c.Placement, procs: procs}
	res, err := te.rec.tracedCell(parent, o.spec(), e.Make(procs), tmk.Config{
		Procs: procs, UnitPages: c.Unit, Dynamic: c.Dynamic,
		Protocol: c.Protocol, Network: c.Network, Placement: c.Placement,
		Collect: collect,
	}, capture)
	if err != nil {
		return harness.Cell{}, fmt.Errorf("%s %s [%s]: %w", e.App, e.Dataset, c.Label, err)
	}
	return harness.Cell{Time: res.Time, Queue: res.QueueDelay, Msgs: res.Messages, Bytes: res.Bytes}, nil
}

// run re-executes the grids, feeding every cell to the checker.
func (te *tracedEval) run(grids []evalGrid) {
	for _, g := range grids {
		gs := te.rec.begin("grid."+g.name, 0, 0)
		out, err := te.grid(gs.ID, g.name)
		te.rec.end(gs)
		for i := range out {
			out[i].grid = g.name
		}
		te.chk.observe(out)
		if err != nil {
			te.chk.fail(fmt.Sprintf("traced grid %s: %v", g.name, err))
		}
	}
}

func (te *tracedEval) grid(parent int64, name string) ([]obs, error) {
	proto, network, placement := tmk.DefaultProtocol, netmodel.Default, tmk.DefaultPlacement
	at := func(e harness.Experiment, c harness.Config, procs int, cell harness.Cell) obs {
		return obs{app: e.App, dataset: e.Dataset, label: c.Label, protocol: c.Protocol,
			network: c.Network, placement: c.Placement, procs: procs, cell: cell}
	}
	sequential := func(es []harness.Experiment, labels []string) ([]obs, error) {
		var out []obs
		for _, e := range es {
			for _, label := range labels {
				c, _ := harness.ConfigByLabel(label)
				c.Protocol, c.Network, c.Placement = proto, network, placement
				cell, err := te.cell(parent, e, c, harness.Procs, true, nil)
				if err != nil {
					return out, err
				}
				out = append(out, at(e, c, harness.Procs, cell))
			}
		}
		return out, nil
	}
	switch name {
	case "table1":
		var out []obs
		for _, e := range harness.Table1() {
			for _, procs := range []int{1, harness.Procs} {
				c := harness.Config{Label: "4K", Unit: 1, Protocol: proto, Network: network, Placement: placement}
				if procs == 1 {
					c.Label = "seq"
				}
				cell, err := te.cell(parent, e, c, procs, true, nil)
				if err != nil {
					return out, err
				}
				o := at(e, c, procs, harness.Cell{Time: cell.Time})
				o.timeOnly = true
				out = append(out, o)
			}
		}
		return out, nil
	case "figure1":
		return sequential(harness.Figure1(), configLabels())
	case "figure2":
		return sequential(harness.Figure2(), configLabels())
	case "figure3":
		return sequential(harness.Figure3(), []string{"4K", "16K"})
	case "protocols":
		var cells []func() (obs, error)
		for _, e := range harness.Table1() {
			for _, p := range tmk.ProtocolNames() {
				c := harness.Config{Label: "4K", Unit: 1, Protocol: p, Network: network, Placement: placement}
				cells = append(cells, func() (obs, error) {
					cell, err := te.cell(parent, e, c, harness.Procs, true, nil)
					return at(e, c, harness.Procs, cell), err
				})
			}
		}
		return te.onPool(cells)
	case "placements":
		var cells []func() (obs, error)
		for _, e := range harness.Table1() {
			for _, n := range harness.PlacementNetworks() {
				cs := []harness.Config{{Label: "4K", Unit: 1, Protocol: "homeless", Network: n, Placement: placement}}
				for _, pl := range tmk.PlacementNames() {
					for _, p := range []string{"home", "adaptive"} {
						cs = append(cs, harness.Config{Label: "4K", Unit: 1, Protocol: p, Network: n, Placement: pl})
					}
				}
				for _, c := range cs {
					cells = append(cells, func() (obs, error) {
						cell, err := te.cell(parent, e, c, harness.Procs, false, nil)
						return at(e, c, harness.Procs, cell), err
					})
				}
			}
		}
		return te.onPool(cells)
	case "networks":
		var blocks []func() ([]obs, error)
		for _, e := range harness.Table1() {
			blocks = append(blocks, func() ([]obs, error) { return te.networkBlock(parent, e) })
		}
		tasks := make([]sweep.Task, len(blocks))
		for i, b := range blocks {
			tasks[i] = sweep.Task{Do: func(context.Context) (any, error) { return b() }}
		}
		res, err := te.pool.Run(context.Background(), tasks)
		var out []obs
		for _, r := range res {
			if block, ok := r.([]obs); ok {
				out = append(out, block...)
			}
		}
		return out, err
	}
	return nil, fmt.Errorf("unknown grid %q", name)
}

func (te *tracedEval) onPool(cells []func() (obs, error)) ([]obs, error) {
	tasks := make([]sweep.Task, len(cells))
	for i, c := range cells {
		tasks[i] = sweep.Task{Do: func(context.Context) (any, error) { return c() }}
	}
	res, err := te.pool.Run(context.Background(), tasks)
	var out []obs
	for _, r := range res {
		if o, ok := r.(obs); ok {
			out = append(out, o)
		}
	}
	return out, err
}

// networkCells are the (protocol, configuration) columns of the
// networks grid, as the harness defines them.
var networkCells = []harness.Config{
	{Label: "4K", Unit: 1, Protocol: "homeless"},
	{Label: "4K", Unit: 1, Protocol: "home"},
	{Label: "4K", Unit: 1, Protocol: "adaptive"},
	{Label: "Dyn", Unit: 1, Dynamic: true, Protocol: "homeless"},
}

// networkBlock computes one experiment's networks × columns block the
// way the harness does: for a replay-safe application each static
// column runs once on the ideal network with a capture attached and
// every other network is derived from it; the adaptive column is
// derived from the homeless capture while the contention gate stays
// closed, and from one captured bus run while the gate verdicts match
// it. Every refused derivation, and every cell of a schedule-sensitive
// application, runs the engine.
func (te *tracedEval) networkBlock(parent int64, e harness.Experiment) ([]obs, error) {
	networks := netmodel.Names()
	var out []obs
	emit := func(c harness.Config, network string, cell harness.Cell) {
		c.Network = network
		out = append(out, obs{app: e.App, dataset: e.Dataset, label: c.Label, protocol: c.Protocol,
			network: network, placement: tmk.DefaultPlacement, procs: harness.Procs, cell: cell})
	}
	real := func(c harness.Config, network string) (harness.Cell, error) {
		c.Network = network
		return te.cell(parent, e, c, harness.Procs, false, nil)
	}
	captured := func(c harness.Config, network string) (harness.Cell, *trace.MemSink, error) {
		c.Network = network
		ms := trace.NewMemSink()
		cell, err := te.cell(parent, e, c, harness.Procs, false, ms)
		return cell, ms, err
	}
	derivedCell := func(base harness.Cell, d *trace.Derived) harness.Cell {
		return harness.Cell{Time: d.Time, Queue: d.Queue, Msgs: int(d.Msgs), Bytes: int(d.Bytes), Derived: true}
	}
	replaySafe := apps.ReplaySafe(e.App)
	var homeless *trace.MemSink
	var homelessCell harness.Cell
	for _, c := range networkCells {
		if c.Protocol == "adaptive" {
			continue
		}
		if !replaySafe {
			for _, n := range networks {
				cell, err := real(c, n)
				if err != nil {
					return out, err
				}
				emit(c, n, cell)
			}
			continue
		}
		base, ms, err := captured(c, netmodel.Default)
		if err != nil {
			return out, err
		}
		if c.Protocol == "homeless" && !c.Dynamic {
			homeless, homelessCell = ms, base
		}
		for _, n := range networks {
			cell := base
			if n != netmodel.Default {
				d, ok := te.rec.derive(parent, ms, n)
				if ok {
					cell = derivedCell(base, d)
				} else if cell, err = real(c, n); err != nil {
					return out, err
				}
			}
			emit(c, n, cell)
		}
	}
	adaptive := networkCells[2]
	var bus *trace.MemSink
	var busCell harness.Cell
	for _, n := range networks {
		var cell harness.Cell
		ok := false
		if replaySafe && homeless != nil {
			if d, dok := te.rec.derive(parent, homeless, n); dok && !anyOpen(d.Gate) {
				cell, ok = derivedCell(homelessCell, d), true
			}
			if !ok {
				if bus == nil {
					var err error
					if busCell, bus, err = captured(adaptive, "bus"); err != nil {
						return out, err
					}
				}
				if n == "bus" {
					cell, ok = busCell, true
				} else if d, dok := te.rec.derive(parent, bus, n); dok && sameGates(d.Gate, d.BaseGate) {
					cell, ok = derivedCell(busCell, d), true
				}
			}
		}
		if !ok {
			var err error
			if cell, err = real(adaptive, n); err != nil {
				return out, err
			}
		}
		emit(adaptive, n, cell)
	}
	return out, nil
}

func anyOpen(gates []bool) bool {
	for _, g := range gates {
		if g {
			return true
		}
	}
	return false
}

func sameGates(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tinyGrids is the self-test's smoke grid: Figure 3 only.
func tinyGrids() []evalGrid {
	for _, g := range evalGrids() {
		if g.name == "figure3" {
			return []evalGrid{g}
		}
	}
	return nil
}

// newPool is a sweep pool as wide as the harness's own.
func newPool() *sweep.Pool { return sweep.New(0) }

// pairedCosts runs each Table 1 experiment at 4 KB units three times —
// plain, with §5.3 collection, and with a MemSink capture — and
// reports the summed extra host time of collection and of capture.
func pairedCosts(tiny bool, m map[string]float64) {
	es := harness.Table1()
	if tiny {
		es = es[:1]
	}
	timed := func(e harness.Experiment, cfg tmk.Config) float64 {
		start := time.Now()
		if _, err := apps.Run(e.Make(harness.Procs), cfg); err != nil {
			return 0
		}
		return time.Since(start).Seconds()
	}
	collect, capture := 0.0, 0.0
	for _, e := range es {
		base := tmk.Config{Procs: harness.Procs, UnitPages: 1}
		plain := timed(e, base)
		c := base
		c.Collect = true
		collect += timed(e, c) - plain
		c = base
		c.Sink = trace.NewMemSink()
		capture += timed(e, c) - plain
	}
	m["instrument.collect_s"] = collect
	m["trace.capture_s"] = capture
}

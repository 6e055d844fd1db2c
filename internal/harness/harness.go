// Package harness defines the paper's experiments — Table 1 and Figures
// 1–3 plus the §5.1 platform microbenchmarks — and renders their results
// as text tables. Each experiment is an application × dataset; each is
// run under the four configurations the paper compares: 4 KB, 8 KB, and
// 16 KB static consistency units, and dynamic aggregation.
//
// Dataset sizes are scaled from the paper's full-size inputs but
// preserve the granularity-to-page ratios (EXPERIMENTS.md has the
// mapping), so the figures' *shapes* — who wins, by what factor, where
// the 8 K→16 K crossovers fall — are the reproduction target, not
// absolute seconds.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	_ "repro/internal/apps/all" // populate the workload registry
	"repro/internal/instrument"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Procs is the paper's processor count.
const Procs = 8

// Experiment is one application × dataset.
type Experiment struct {
	App     string
	Dataset string // our scaled dataset
	Paper   string // the paper's dataset it stands in for
	Make    func(procs int) apps.Workload
}

// Config is one engine configuration column.
type Config struct {
	Label   string
	Unit    int // consistency unit in pages
	Dynamic bool
	// Protocol names the coherence protocol (tmk.ProtocolNames);
	// empty selects the paper's homeless protocol.
	Protocol string
	// Network names the interconnect timing model (netmodel.Names);
	// empty selects the paper's contention-free "ideal" arithmetic.
	Network string
	// Placement names the home-placement policy (tmk.PlacementNames);
	// empty selects the paper-era round-robin homes ("rr").
	Placement string
	// Scale names the engine representation (tmk.ScaleSparse or
	// tmk.ScaleDense); empty selects the sparse default. Barrier names
	// the barrier fabric (tmk.BarrierNames); empty selects the
	// centralized golden reference. BarrierRadix is the tree fabric's
	// fan-in (zero = tmk.DefaultBarrierRadix; ignored by "central").
	Scale        string
	Barrier      string
	BarrierRadix int
}

// Configs are the paper's four configurations, in figure order.
func Configs() []Config {
	return []Config{
		{Label: "4K", Unit: 1},
		{Label: "8K", Unit: 2},
		{Label: "16K", Unit: 4},
		{Label: "Dyn", Unit: 1, Dynamic: true},
	}
}

// ConfigByLabel resolves one of the paper's configuration labels
// ("4K", "8K", "16K", "Dyn"; case-insensitive).
func ConfigByLabel(label string) (Config, bool) {
	for _, c := range Configs() {
		if strings.EqualFold(c.Label, label) {
			return c, true
		}
	}
	return Config{}, false
}

// LabelFor names the configuration with the given unit size and
// aggregation mode in the paper's nomenclature.
func LabelFor(unit int, dynamic bool) string {
	if dynamic {
		return "Dyn"
	}
	return fmt.Sprintf("%dK", 4*unit)
}

// Cell is the outcome of one experiment under one configuration.
type Cell struct {
	Time  sim.Duration
	Queue sim.Duration // cumulative network contention delay
	Msgs  int
	Bytes int
	// SwitchedUnits carries the adaptive protocol's per-run accounting
	// (zero under the static protocols): how many units changed engine
	// at least once.
	SwitchedUnits int
	// Rehomes and RehomeBytes carry the placement layer's accounting
	// (zero under "rr"): home moves after construction, and the wire
	// bytes of the priced home-state transfers among them. HandoffBytes
	// is the wire total of adaptive homeless→home image pulls.
	Rehomes      int
	RehomeBytes  int
	HandoffBytes int
	Stats        *instrument.Stats
	// Derived marks a cell whose totals were priced by replaying
	// another cell's captured trace through this cell's network model
	// instead of executing the engine (see derive.go). Message and byte
	// totals are exact; Time and Queue re-create the recorded pricing
	// order, which on contended models can differ from a fresh run by
	// the same sub-percent wobble two real runs show.
	Derived bool
}

// Run executes one experiment under one configuration with verification.
func Run(e Experiment, c Config, procs int) (Cell, error) {
	cells, _, err := execute([]gridCell{{e: e, c: c, procs: procs, collect: true}}, execReal)
	if err != nil {
		return Cell{}, err
	}
	return cells[0], nil
}

// RunFigure runs each experiment under the paper configurations named
// by labels (see ConfigByLabel) on the given coherence protocol, network
// model, and home placement (empty = defaults), and returns one
// label-keyed cell map per experiment — the input RenderFigure and
// RenderSignature draw.
func RunFigure(es []Experiment, labels []string, protocol, network, placement string) ([]map[string]Cell, error) {
	var cells []gridCell
	for _, e := range es {
		for _, label := range labels {
			c, ok := ConfigByLabel(label)
			if !ok {
				return nil, fmt.Errorf("unknown configuration label %q", label)
			}
			c.Protocol, c.Network, c.Placement = protocol, network, placement
			cells = append(cells, gridCell{e: e, c: c, procs: Procs, collect: true})
		}
	}
	res, _, err := execute(cells, execReal)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]Cell, len(es))
	for i := range es {
		out[i] = make(map[string]Cell, len(labels))
		for j, label := range labels {
			out[i][label] = res[i*len(labels)+j]
		}
	}
	return out, nil
}

// checkNames returns names, or defaults when names is empty, after
// checking every name against the registry of its kind ("protocol",
// "placement", or "network model") — before the first (potentially
// long) run.
func checkNames(kind string, names, defaults []string) ([]string, error) {
	known, all := netmodel.Known, netmodel.Names
	switch kind {
	case "protocol":
		known, all = tmk.KnownProtocol, tmk.ProtocolNames
	case "placement":
		known, all = tmk.KnownPlacement, tmk.PlacementNames
	}
	if len(names) == 0 {
		return defaults, nil
	}
	for _, n := range names {
		if !known(n) {
			return nil, fmt.Errorf("unknown %s %q (known: %s)", kind, n, strings.Join(all(), ", "))
		}
	}
	return names, nil
}

// --- experiment definitions -------------------------------------------------

// exp is a view over one registry entry. Every figure/table experiment
// is defined in its app package's registration; the harness only
// selects and orders them. A missing entry is a programming error
// (figures name only registered datasets), so it panics when the
// figure is requested — the harness tests exercise every figure, so
// a renamed registration fails the suite immediately.
func exp(app, dataset string) Experiment {
	e, ok := apps.Lookup(app, dataset)
	if !ok {
		panic(fmt.Sprintf("harness: workload %s/%s is not registered", app, dataset))
	}
	return Experiment{App: e.App, Dataset: e.Dataset, Paper: e.Paper, Make: e.Make}
}

// Figure1 returns the applications whose false-sharing behaviour is
// input-size independent: Barnes, Ilink, TSP, Water.
func Figure1() []Experiment {
	return []Experiment{
		exp("Barnes", "512"),
		exp("Ilink", "8x8192"),
		exp("TSP", "12-city"),
		exp("Water", "96"),
	}
}

// Figure2 returns the size-sensitive applications, one experiment per
// dataset, ordered as in the paper's Figure 2.
func Figure2() []Experiment {
	return []Experiment{
		exp("Jacobi", "128x512 (row=1pg)"),
		exp("Jacobi", "64x1024 (row=2pg)"),
		exp("3D-FFT", "8x8x128 (chunk=1pg)"),
		exp("3D-FFT", "8x8x256 (chunk=2pg)"),
		exp("3D-FFT", "8x8x512 (chunk=4pg)"),
		exp("MGS", "512x32 (vec=1pg)"),
		exp("MGS", "1024x24 (vec=2pg)"),
		exp("MGS", "2048x16 (vec=4pg)"),
		exp("Shallow", "512x16 (col=1pg)"),
		exp("Shallow", "1024x16 (col=2pg)"),
		exp("Shallow", "2048x16 (col=4pg)"),
	}
}

// Table1 returns one primary experiment per application.
func Table1() []Experiment {
	f1 := Figure1()
	return []Experiment{
		f1[0],        // Barnes
		f1[1],        // Ilink
		Figure2()[3], // 3D-FFT medium
		Figure2()[5], // MGS vec=1pg
		Figure2()[8], // Shallow col=1pg
		Figure2()[0], // Jacobi row=1pg
		f1[2],        // TSP
		f1[3],        // Water
	}
}

// Figure3 returns the signature experiments (Barnes, Ilink, Water, MGS).
func Figure3() []Experiment {
	f1 := Figure1()
	return []Experiment{f1[0], f1[1], f1[3], Figure2()[5]}
}

// --- rendering ---------------------------------------------------------------

func norm(v, base float64) string {
	if base == 0 {
		return "   -  "
	}
	return fmt.Sprintf("%6.3f", v/base)
}

// RenderFigure prints one experiment's normalized breakdown rows (the
// paper's three bar groups: execution time, messages, data) for each
// configuration, all normalized to the 4 KB column.
func RenderFigure(w io.Writer, e Experiment, cells map[string]Cell) {
	cfgs := Configs()
	base := cells["4K"]
	fmt.Fprintf(w, "%s %s  (paper: %s)\n", e.App, e.Dataset, e.Paper)
	fmt.Fprintf(w, "  %-26s", "")
	for _, c := range cfgs {
		fmt.Fprintf(w, "%8s", c.Label)
	}
	fmt.Fprintln(w)

	row := func(label string, f func(Cell) float64, baseV float64) {
		fmt.Fprintf(w, "  %-26s", label)
		for _, c := range cfgs {
			fmt.Fprintf(w, "%8s", norm(f(cells[c.Label]), baseV))
		}
		fmt.Fprintln(w)
	}
	row("time", func(c Cell) float64 { return c.Time.Seconds() }, base.Time.Seconds())
	row("messages", func(c Cell) float64 { return float64(c.Stats.Messages.Total()) },
		float64(base.Stats.Messages.Total()))
	row("  useless messages", func(c Cell) float64 { return float64(c.Stats.Messages.Useless) },
		float64(base.Stats.Messages.Total()))
	row("data", func(c Cell) float64 { return float64(c.Stats.TotalDataBytes()) },
		float64(base.Stats.TotalDataBytes()))
	row("  useless data", func(c Cell) float64 { return float64(c.Stats.UselessBytes) },
		float64(base.Stats.TotalDataBytes()))
	row("  piggybacked useless", func(c Cell) float64 { return float64(c.Stats.PiggybackedBytes) },
		float64(base.Stats.TotalDataBytes()))
	fmt.Fprintln(w)
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	App     string
	Dataset string
	SeqTime sim.Duration // simulated 1-processor time
	ParTime sim.Duration // simulated 8-processor time at 4 KB units
	Speedup float64
}

// RunTable1 computes Table 1 (sequential simulated time and 8-processor
// speedup at the 4 KB unit) under the given coherence protocol (empty =
// homeless), network model (empty = ideal), and home placement (empty =
// round-robin).
func RunTable1(es []Experiment, protocol, network, placement string) ([]Table1Row, error) {
	var cells []gridCell
	for _, e := range es {
		seq := Config{Label: "seq", Unit: 1, Protocol: protocol, Network: network, Placement: placement}
		par := seq
		par.Label = "4K"
		cells = append(cells,
			gridCell{e: e, c: seq, procs: 1, collect: true},
			gridCell{e: e, c: par, procs: Procs, collect: true})
	}
	res, _, err := execute(cells, execReal)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for i, e := range es {
		seq, par := res[2*i], res[2*i+1]
		rows = append(rows, Table1Row{
			App:     e.App,
			Dataset: e.Dataset,
			SeqTime: seq.Time,
			ParTime: par.Time,
			Speedup: seq.Time.Seconds() / par.Time.Seconds(),
		})
	}
	return rows, nil
}

// RenderTable1 prints Table 1.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-8s  %-22s  %12s  %12s  %8s\n",
		"Program", "Input Size", "Seq. Time(s)", "8-proc (s)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s  %-22s  %12s  %12s  %8.2f\n",
			r.App, r.Dataset, sim.FormatSeconds(r.SeqTime),
			sim.FormatSeconds(r.ParTime), r.Speedup)
	}
}

// RenderSignature prints the false-sharing signature of one experiment
// at 4 KB and 16 KB units (the paper's Figure 3): per concurrent-writer
// count, the fraction of faults, split into useful and useless messages.
func RenderSignature(w io.Writer, e Experiment, cells map[string]Cell) {
	fmt.Fprintf(w, "%s %s — false sharing signature\n", e.App, e.Dataset)
	for _, label := range []string{"4K", "16K"} {
		st := cells[label].Stats
		total := 0
		for _, b := range st.Signature {
			total += b.Faults
		}
		fmt.Fprintf(w, "  %-4s", label)
		if total == 0 {
			fmt.Fprintln(w, "  (no remote faults)")
			continue
		}
		var ks []int
		for k := range st.Signature {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			b := st.Signature[k]
			fmt.Fprintf(w, "  [%d: %4.1f%% of faults, msgs %d useful/%d useless]",
				k, 100*float64(b.Faults)/float64(total), b.UsefulMsgs, b.UselessMsgs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RenderMicro prints the §5.1 platform-calibration table: the simulated
// operation costs next to the paper's measured values.
func RenderMicro(w io.Writer) {
	cost := sim.DefaultCostModel()
	rtt := cost.RoundTrip(1, 0)
	lock := 3*cost.MessageLeg + cost.LockService + 32*cost.PerByte
	barrier := 2*cost.MessageLeg + cost.BarrierManager + Procs*cost.RequestService
	diffLo := cost.PageFault + cost.RoundTrip(24, 512) + cost.RequestService
	diffHi := cost.PageFault + cost.RoundTrip(24, 3*4096) + cost.RequestService + 3*cost.DiffPerPage

	fmt.Fprintf(w, "%-28s  %14s  %14s\n", "Operation", "Simulated", "Paper (§5.1)")
	fmt.Fprintf(w, "%-28s  %11.0f µs  %14s\n", "1-byte round trip", us(rtt), "296 µs")
	fmt.Fprintf(w, "%-28s  %11.0f µs  %14s\n", "lock acquisition", us(lock), "374–574 µs")
	fmt.Fprintf(w, "%-28s  %11.0f µs  %14s\n", "8-processor barrier", us(barrier), "861 µs")
	fmt.Fprintf(w, "%-28s  %4.0f–%4.0f µs  %14s\n", "diff fetch", us(diffLo), us(diffHi), "579–1746 µs")
}

func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// --- protocol comparison -----------------------------------------------------

// ProtocolRow is one experiment's outcome under one coherence protocol.
type ProtocolRow struct {
	Protocol string
	Cell     Cell
}

// ProtocolComparison is one experiment run under every registered
// protocol at one configuration — the homeless-vs-home-based view the
// protocol layer exists to produce.
type ProtocolComparison struct {
	App     string
	Dataset string
	Config  string
	Rows    []ProtocolRow
}

// RunProtocolComparison runs each experiment under every registered
// coherence protocol at the paper's base configuration (4 KB units)
// and returns one comparison per experiment, protocols in sorted name
// order. Every cell is verified against the sequential reference.
// Cells run in parallel on the sweep pool.
func RunProtocolComparison(es []Experiment, procs int) ([]ProtocolComparison, error) {
	protos := tmk.ProtocolNames()
	var cells []gridCell
	for _, e := range es {
		for _, proto := range protos {
			c := Config{Label: "4K", Unit: 1, Protocol: proto}
			cells = append(cells, gridCell{e: e, c: c, procs: procs, collect: true, axis: "protocol " + proto})
		}
	}
	res, _, err := execute(cells, execReal)
	if err != nil {
		return nil, err
	}
	var out []ProtocolComparison
	for i, e := range es {
		pc := ProtocolComparison{App: e.App, Dataset: e.Dataset, Config: "4K"}
		for j, proto := range protos {
			pc.Rows = append(pc.Rows, ProtocolRow{Protocol: proto, Cell: res[i*len(protos)+j]})
		}
		out = append(out, pc)
	}
	return out, nil
}

// --- network sensitivity -----------------------------------------------------

// NetworkCell is one (protocol, configuration) outcome on one network.
type NetworkCell struct {
	Protocol string
	Config   string
	Cell     Cell
}

// NetworkRow is one interconnect's view of an experiment: the same
// cells re-priced on one network model.
type NetworkRow struct {
	Network string
	Cells   []NetworkCell
}

// NetworkComparison is one experiment across the interconnect family —
// the sensitivity sweep asking how the paper's conclusions move on
// faster or more contended networks.
type NetworkComparison struct {
	App     string
	Dataset string
	Rows    []NetworkRow
}

// networkCellConfigs are the (protocol, configuration) pairs each
// network is evaluated at: the paper's base (homeless, 4 KB), the
// home-based engine (home, 4 KB), the adaptive hybrid (adaptive,
// 4 KB), and dynamic aggregation (homeless, Dyn) — enough to watch the
// trades (homeless vs home vs per-unit hybrid, small units vs
// aggregation) move with the interconnect.
func networkCellConfigs() []Config {
	return []Config{
		{Label: "4K", Unit: 1, Protocol: "homeless"},
		{Label: "4K", Unit: 1, Protocol: "home"},
		{Label: "4K", Unit: 1, Protocol: "adaptive"},
		{Label: "Dyn", Unit: 1, Dynamic: true, Protocol: "homeless"},
	}
}

// RunNetworkComparison runs each experiment under every named network
// model (nil/empty = all registered models, sorted) at the cells of
// networkCellConfigs. For replay-safe applications only the base cells
// execute the engine — the other interconnects' cells are derived by
// re-pricing the captured streams (see derive.go); schedule-sensitive
// applications run every cell for real. SetNetworkDerivation(false)
// forces every cell through the engine.
func RunNetworkComparison(es []Experiment, procs int, networks []string) ([]NetworkComparison, error) {
	networks, err := checkNames("network model", networks, netmodel.Names())
	if err != nil {
		return nil, err
	}
	configs := networkCellConfigs()
	var cells []gridCell
	for _, e := range es {
		for _, network := range networks {
			for _, c := range configs {
				c.Network = network
				cells = append(cells, gridCell{e: e, c: c, procs: procs, axis: "network " + network})
			}
		}
	}
	mode := execReal
	if netDerivation.Load() {
		mode = execDerive
	}
	res, _, err := execute(cells, mode)
	if err != nil {
		return nil, err
	}
	var out []NetworkComparison
	next := 0
	for _, e := range es {
		nc := NetworkComparison{App: e.App, Dataset: e.Dataset}
		for _, network := range networks {
			row := NetworkRow{Network: network}
			for _, c := range configs {
				row.Cells = append(row.Cells, NetworkCell{Protocol: c.Protocol, Config: c.Label, Cell: res[next]})
				next++
			}
			nc.Rows = append(nc.Rows, row)
		}
		out = append(out, nc)
	}
	return out, nil
}

// RenderNetworkComparison prints the network-sensitivity table: per
// experiment and interconnect, the homeless/4 KB baseline's absolute
// time and cumulative queue delay, and the time ratios home÷homeless
// (the protocol trade), adapt÷homeless (the per-unit hybrid; its "sw"
// column counts the units it switched), and Dyn÷4K (the aggregation
// trade). Ratios above 1 mean the alternative loses on that
// interconnect.
func RenderNetworkComparison(w io.Writer, ncs []NetworkComparison) {
	fmt.Fprintf(w, "%-8s  %-22s  %-8s  %9s  %9s  %7s  %7s  %4s  %7s\n",
		"Program", "Input Size", "Network", "Time(s)", "Queue(s)", "home×", "adapt×", "sw", "dyn×")
	for _, nc := range ncs {
		for _, row := range nc.Rows {
			var base, home, adapt, dyn *Cell
			for i := range row.Cells {
				c := &row.Cells[i]
				switch {
				case c.Protocol == "homeless" && c.Config == "4K":
					base = &c.Cell
				case c.Protocol == "home" && c.Config == "4K":
					home = &c.Cell
				case c.Protocol == "adaptive" && c.Config == "4K":
					adapt = &c.Cell
				case c.Config == "Dyn":
					dyn = &c.Cell
				}
			}
			if base == nil {
				continue
			}
			ratio := func(c *Cell) string {
				if c == nil || base.Time == 0 {
					return "-"
				}
				return fmt.Sprintf("%.2f", c.Time.Seconds()/base.Time.Seconds())
			}
			sw := "-"
			if adapt != nil {
				sw = fmt.Sprintf("%d", adapt.SwitchedUnits)
			}
			fmt.Fprintf(w, "%-8s  %-22s  %-8s  %9.3f  %9.3f  %7s  %7s  %4s  %7s\n",
				nc.App, nc.Dataset, row.Network,
				base.Time.Seconds(), base.Queue.Seconds(), ratio(home), ratio(adapt), sw, ratio(dyn))
		}
	}
}

// --- home placement ----------------------------------------------------------

// PlacementCell is one (protocol, network) outcome under one placement
// policy.
type PlacementCell struct {
	Placement string
	Protocol  string
	Network   string
	Cell      Cell
}

// PlacementComparison is one experiment across the home-placement
// policies — the view asking where first-touch and JIAJIA-style
// migration close the home-vs-homeless gap, and what the adaptive
// hybrid's handoff costs under each.
type PlacementComparison struct {
	App     string
	Dataset string
	Cells   []PlacementCell
}

// placementProtocols are the protocols the placement axis matters for:
// the home-based engine and the adaptive hybrid (homeless ignores
// homes; its cells are run once per network as the comparison
// baseline).
var placementProtocols = []string{"home", "adaptive"}

// PlacementNetworks are the interconnects the placement comparison is
// evaluated on: the paper's contention-free arithmetic and the
// contended shared medium, the two ends of the range over which home
// placement moves the protocol trade.
func PlacementNetworks() []string { return []string{"ideal", "bus"} }

// RunPlacementComparison runs each experiment under every named
// placement policy (nil/empty = all registered, sorted) for the
// home-based and adaptive protocols on every named network (nil/empty
// = PlacementNetworks), plus one homeless baseline cell per network.
// All at the paper's base configuration (4 KB units); every cell is
// verified against the sequential reference.
func RunPlacementComparison(es []Experiment, procs int, placements, networks []string) ([]PlacementComparison, error) {
	placements, err := checkNames("placement", placements, tmk.PlacementNames())
	if err != nil {
		return nil, err
	}
	if networks, err = checkNames("network model", networks, PlacementNetworks()); err != nil {
		return nil, err
	}
	// Per network, one homeless baseline then the placements × protocols
	// cells.
	var (
		cells []gridCell
		slots []PlacementCell
	)
	for _, e := range es {
		for _, network := range networks {
			c := Config{Label: "4K", Unit: 1, Protocol: "homeless", Network: network}
			cells = append(cells, gridCell{e: e, c: c, procs: procs, axis: "network " + network})
			slots = append(slots, PlacementCell{Placement: tmk.DefaultPlacement, Protocol: "homeless", Network: network})
			for _, placement := range placements {
				for _, protocol := range placementProtocols {
					c := Config{Label: "4K", Unit: 1, Protocol: protocol, Network: network, Placement: placement}
					cells = append(cells, gridCell{e: e, c: c, procs: procs,
						axis: "placement " + placement + "/" + protocol})
					slots = append(slots, PlacementCell{Placement: placement, Protocol: protocol, Network: network})
				}
			}
		}
	}
	if len(es) == 0 {
		return nil, nil
	}
	res, _, err := execute(cells, execReal)
	if err != nil {
		return nil, err
	}
	perExp := len(slots) / len(es)
	var out []PlacementComparison
	for i, e := range es {
		pc := PlacementComparison{App: e.App, Dataset: e.Dataset}
		for j := i * perExp; j < (i+1)*perExp; j++ {
			slots[j].Cell = res[j]
			pc.Cells = append(pc.Cells, slots[j])
		}
		out = append(out, pc)
	}
	return out, nil
}

// RenderPlacementComparison prints the placement comparison: per
// experiment, network, and placement policy, the homeless baseline's
// absolute time, the home-based and adaptive times as ratios to it
// (below 1 beats homeless on that interconnect), the placement layer's
// rehome count and transferred kilobytes, and the adaptive hybrid's
// switched-unit count and homeless→home handoff kilobytes (which a
// mobile placement drives to zero by migrating the home instead).
func RenderPlacementComparison(w io.Writer, pcs []PlacementComparison) {
	fmt.Fprintf(w, "%-8s  %-22s  %-6s  %-10s  %9s  %6s  %4s  %7s  %6s  %4s  %7s\n",
		"Program", "Input Size", "Net", "Placement", "hless(s)", "home×", "reh", "rehKB", "adapt×", "sw", "handKB")
	for _, pc := range pcs {
		type key struct{ network, placement, protocol string }
		cells := make(map[key]*Cell)
		var networks, placements []string
		seenNet := map[string]bool{}
		seenPl := map[string]bool{}
		for i := range pc.Cells {
			c := &pc.Cells[i]
			cells[key{c.Network, c.Placement, c.Protocol}] = &c.Cell
			if !seenNet[c.Network] {
				seenNet[c.Network] = true
				networks = append(networks, c.Network)
			}
			if c.Protocol != "homeless" && !seenPl[c.Placement] {
				seenPl[c.Placement] = true
				placements = append(placements, c.Placement)
			}
		}
		for _, network := range networks {
			base := cells[key{network, tmk.DefaultPlacement, "homeless"}]
			if base == nil || base.Time == 0 {
				continue
			}
			for _, placement := range placements {
				home := cells[key{network, placement, "home"}]
				adapt := cells[key{network, placement, "adaptive"}]
				ratio := func(c *Cell) string {
					if c == nil {
						return "-"
					}
					return fmt.Sprintf("%.2f", c.Time.Seconds()/base.Time.Seconds())
				}
				reh, rehKB := "-", "-"
				if home != nil {
					reh = fmt.Sprintf("%d", home.Rehomes)
					rehKB = fmt.Sprintf("%.1f", float64(home.RehomeBytes)/1024)
				}
				sw, handKB := "-", "-"
				if adapt != nil {
					sw = fmt.Sprintf("%d", adapt.SwitchedUnits)
					handKB = fmt.Sprintf("%.1f", float64(adapt.HandoffBytes)/1024)
				}
				fmt.Fprintf(w, "%-8s  %-22s  %-6s  %-10s  %9.3f  %6s  %4s  %7s  %6s  %4s  %7s\n",
					pc.App, pc.Dataset, network, placement,
					base.Time.Seconds(), ratio(home), reh, rehKB, ratio(adapt), sw, handKB)
			}
		}
	}
}

// RenderProtocolComparison prints the protocol comparison: absolute
// time, messages, and wire bytes per protocol, plus each row's ratio to
// the homeless baseline — the fewer-messages/more-bytes trade in one
// table. The "sw" column counts the units the adaptive protocol
// switched ("-" for the static protocols).
func RenderProtocolComparison(w io.Writer, pcs []ProtocolComparison) {
	fmt.Fprintf(w, "%-8s  %-22s  %-9s  %9s  %6s  %10s  %6s  %11s  %6s  %4s\n",
		"Program", "Input Size", "Protocol", "Time(s)", "×", "Msgs", "×", "Wire KB", "×", "sw")
	for _, pc := range pcs {
		var base *Cell
		for i := range pc.Rows {
			if pc.Rows[i].Protocol == "homeless" {
				base = &pc.Rows[i].Cell
			}
		}
		for _, r := range pc.Rows {
			ratio := func(v, b float64) string {
				if base == nil || b == 0 {
					return "-"
				}
				return fmt.Sprintf("%.2f", v/b)
			}
			var bt, bm, bb float64
			if base != nil {
				bt = base.Time.Seconds()
				bm = float64(base.Msgs)
				bb = float64(base.Stats.TotalWireBytes)
			}
			sw := "-"
			if r.Protocol == "adaptive" {
				sw = fmt.Sprintf("%d", r.Cell.SwitchedUnits)
			}
			fmt.Fprintf(w, "%-8s  %-22s  %-9s  %9.3f  %6s  %10d  %6s  %11.1f  %6s  %4s\n",
				pc.App, pc.Dataset, r.Protocol,
				r.Cell.Time.Seconds(), ratio(r.Cell.Time.Seconds(), bt),
				r.Cell.Msgs, ratio(float64(r.Cell.Msgs), bm),
				float64(r.Cell.Stats.TotalWireBytes)/1024,
				ratio(float64(r.Cell.Stats.TotalWireBytes), bb), sw)
		}
	}
}

// --- scaling sweep -----------------------------------------------------------

// ScalingMode is one engine-representation arm of the scaling sweep:
// a (scale, barrier) pairing the curves are produced under.
type ScalingMode struct {
	Name    string // display label, e.g. "sparse/tree"
	Scale   string // tmk.ScaleSparse or tmk.ScaleDense
	Barrier string // barrier fabric registry name
	Radix   int    // tree fan-in (0 = engine default; ignored by central)
}

// ScalingModes returns the sweep's two arms: the dense representation
// with the centralized barrier (the paper-faithful reference the 8-proc
// golden tests pin) and the sparse representation with the radix-4
// combining tree (the configuration built to scale past it).
func ScalingModes() []ScalingMode {
	return []ScalingMode{
		{Name: "dense/central", Scale: tmk.ScaleDense, Barrier: "central"},
		{Name: "sparse/tree", Scale: tmk.ScaleSparse, Barrier: "tree", Radix: tmk.DefaultBarrierRadix},
	}
}

// ScalingSizes returns the sweep's processor counts: the paper's 8,
// then 64/256/1024 — past anything the original evaluation ran.
func ScalingSizes() []int { return []int{8, 64, 256, 1024} }

// ScalingProtocols returns the static protocols the curves cover.
func ScalingProtocols() []string { return []string{"homeless", "home"} }

// ScalingNetworks returns the interconnects the curves cover: the
// contention-free arithmetic and the contended shared medium, the two
// ends of the range over which barrier fan-in matters.
func ScalingNetworks() []string { return []string{"ideal", "bus"} }

// ScalingPoint is one processor count on one curve: the engine run's
// accounting plus the host wall clock it took to simulate — the sweep's
// headline metric, since the modes are bit-identical at 8 procs and the
// whole point of the sparse arm is simulating large n cheaply.
type ScalingPoint struct {
	Procs int
	Wall  time.Duration
	Cell  Cell
}

// ScalingCurve is one protocol × network × mode curve over the sweep's
// processor counts.
type ScalingCurve struct {
	App      string
	Dataset  string
	Protocol string
	Network  string
	Mode     ScalingMode
	Points   []ScalingPoint
}

// RunScaling runs the experiment across protocols × networks × modes ×
// sizes on the sweep pool and returns one curve per protocol × network
// × mode, sizes ascending. Nil/empty axes take the Scaling* defaults.
// Every cell is verified against the sequential reference; wall clock
// is measured around the single cell run (on a multi-core host,
// concurrent cells share the machine, so treat wall times as
// comparative, not absolute — the committed sweep records GOMAXPROCS
// alongside).
func RunScaling(e Experiment, protocols, networks []string, sizes []int, modes []ScalingMode) ([]ScalingCurve, error) {
	protocols, err := checkNames("protocol", protocols, ScalingProtocols())
	if err != nil {
		return nil, err
	}
	if networks, err = checkNames("network model", networks, ScalingNetworks()); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = ScalingSizes()
	}
	if len(modes) == 0 {
		modes = ScalingModes()
	}

	// Cells in (protocol, mode, size, network) order, so one engine
	// configuration's networks sit together on the pool; curves are
	// (protocol, network, mode) with sizes ascending.
	idx := func(pi, mi, si, ni int) int {
		return ((pi*len(modes)+mi)*len(sizes)+si)*len(networks) + ni
	}
	var cells []gridCell
	for _, proto := range protocols {
		for _, mode := range modes {
			for _, procs := range sizes {
				for _, network := range networks {
					c := Config{
						Label: "4K", Unit: 1,
						Protocol: proto, Network: network,
						Scale: mode.Scale, Barrier: mode.Barrier, BarrierRadix: mode.Radix,
					}
					cells = append(cells, gridCell{e: e, c: c, procs: procs,
						axis: fmt.Sprintf("scaling %s/%s/%s n=%d", proto, network, mode.Name, procs)})
				}
			}
		}
	}
	res, walls, err := execute(cells, execTimed)
	if err != nil {
		return nil, err
	}
	var out []ScalingCurve
	for pi, proto := range protocols {
		for ni, network := range networks {
			for mi, mode := range modes {
				curve := ScalingCurve{
					App: e.App, Dataset: e.Dataset,
					Protocol: proto, Network: network, Mode: mode,
				}
				for si, procs := range sizes {
					i := idx(pi, mi, si, ni)
					curve.Points = append(curve.Points, ScalingPoint{Procs: procs, Wall: walls[i], Cell: res[i]})
				}
				out = append(out, curve)
			}
		}
	}
	return out, nil
}

// ScalingSpeedup returns the wall-clock ratio reference÷candidate at
// the given processor count for the protocol × network cell shared by
// the two curves, or 0 when either point is missing. Above 1 the
// candidate mode simulates that cell faster.
func ScalingSpeedup(reference, candidate ScalingCurve, procs int) float64 {
	var ref, cand time.Duration
	for _, pt := range reference.Points {
		if pt.Procs == procs {
			ref = pt.Wall
		}
	}
	for _, pt := range candidate.Points {
		if pt.Procs == procs {
			cand = pt.Wall
		}
	}
	if ref <= 0 || cand <= 0 {
		return 0
	}
	return float64(ref) / float64(cand)
}

// RenderScaling prints the sweep: per protocol × network and processor
// count, each mode's host wall clock and simulated time, plus the
// wall-clock speedup of the last mode over the first (the sweep's
// reference mode by convention).
func RenderScaling(w io.Writer, curves []ScalingCurve) {
	if len(curves) == 0 {
		return
	}
	// Group curves by protocol × network in arrival order.
	type cellID struct{ proto, network string }
	groups := make(map[cellID][]ScalingCurve)
	var order []cellID
	for _, c := range curves {
		id := cellID{c.Protocol, c.Network}
		if _, ok := groups[id]; !ok {
			order = append(order, id)
		}
		groups[id] = append(groups[id], c)
	}
	fmt.Fprintf(w, "%s %s — host wall clock (ms) and simulated time (s) per engine mode\n",
		curves[0].App, curves[0].Dataset)
	for _, id := range order {
		cs := groups[id]
		fmt.Fprintf(w, "  %s × %s\n", id.proto, id.network)
		fmt.Fprintf(w, "    %-6s", "procs")
		for _, c := range cs {
			fmt.Fprintf(w, "  %24s", c.Mode.Name)
		}
		if len(cs) > 1 {
			fmt.Fprintf(w, "  %8s", "speedup")
		}
		fmt.Fprintln(w)
		for i, pt := range cs[0].Points {
			fmt.Fprintf(w, "    %-6d", pt.Procs)
			for _, c := range cs {
				p := c.Points[i]
				fmt.Fprintf(w, "  %12.0f / %9.3f", float64(p.Wall.Microseconds())/1000, p.Cell.Time.Seconds())
			}
			if len(cs) > 1 {
				fmt.Fprintf(w, "  %7.1f×", ScalingSpeedup(cs[0], cs[len(cs)-1], pt.Procs))
			}
			fmt.Fprintln(w)
		}
	}
}

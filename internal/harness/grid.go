package harness

// The grid executor: every harness sweep — Table 1, the figures, the
// protocol/network/placement comparisons, the scaling curves — builds a
// flat list of cells and hands it to execute, which
//
//  1. dedups the cells by cellKey (equal keys run the engine once),
//  2. when the caller allows derivation, plans it: cells that differ
//     only in network form one family with a single traced base run,
//     the rest of the family derived by replay (derive.go),
//  3. runs every real cell and every family as one task on sweepPool,
//  4. returns the cells in input order (plus per-cell wall clocks for
//     timed batches).
//
// The exported Run* functions only build the cell list and reshape the
// result into their comparison types.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/apps"
	"repro/internal/sweep"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// sweepPool is the shared work-stealing scheduler every grid runs on:
// one pool of GOMAXPROCS workers for the process, so concurrent grids
// share the machine's run budget instead of multiplying it.
var sweepPool = sweep.New(0)

// cellKey computes the dedup key of one cell in a batch: two cells with
// the same key run the engine once and share the result. The default
// key is the raw configuration tuple; the experiment service upgrades
// it to its canonical spec hash (see RegisterCellKey), which also
// collapses aliased names — an empty network and "ideal", an empty
// placement and the registered default.
var cellKey = func(app, dataset string, c Config, procs int, collect bool) string {
	return fmt.Sprintf("%s|%s|p%d|u%d|dyn%t|%s|%s|%s|%s|%s|r%d|col%t",
		app, dataset, procs, c.Unit, c.Dynamic, c.Protocol, c.Network, c.Placement,
		c.Scale, c.Barrier, c.BarrierRadix, collect)
}

// RegisterCellKey replaces the batch dedup key function, typically
// with the experiment service's canonical spec hash (expsvc installs
// it from init, so any binary linking the service gets content-
// addressed keys). The function must map equal cells to equal keys;
// returning "" marks a cell unshareable (it always runs).
func RegisterCellKey(fn func(app, dataset string, c Config, procs int, collect bool) string) {
	if fn != nil {
		cellKey = fn
	}
}

// gridCell is one cell of a batch. axis names the cell's coordinates on
// its grid ("network bus", "placement migrate/home"); errors from the
// cell are prefixed with it.
type gridCell struct {
	e       Experiment
	c       Config
	procs   int
	collect bool
	axis    string
}

func (g gridCell) key() string { return cellKey(g.e.App, g.e.Dataset, g.c, g.procs, g.collect) }

func (g gridCell) wrap(err error) error {
	if g.axis == "" {
		return err
	}
	return fmt.Errorf("%s: %w", g.axis, err)
}

// execMode selects how execute runs a batch.
type execMode int

const (
	// execReal runs every cell through the engine.
	execReal execMode = iota
	// execDerive derives network families by trace replay where
	// Derivable allows it and runs the rest for real.
	execDerive
	// execTimed runs every cell through the engine from a settled
	// runtime, so its host wall clock is the datum.
	execTimed
)

// execute runs a batch of cells and returns their results and host
// wall clocks in input order (cells of a derivation family report a
// zero wall).
func execute(cells []gridCell, mode execMode) ([]Cell, []time.Duration, error) {
	// 1. Dedup: slot maps each input cell to its unique cell.
	var uniq []gridCell
	slot := make([]int, len(cells))
	byKey := make(map[string]int, len(cells))
	for i, g := range cells {
		k := g.key()
		if j, ok := byKey[k]; ok && k != "" {
			slot[i] = j
			continue
		}
		if k != "" {
			byKey[k] = len(uniq)
		}
		slot[i] = len(uniq)
		uniq = append(uniq, g)
	}

	// 2. Plan: one task per real cell, one per derivation family; a
	// task's members index uniq, in first-appearance order.
	type task struct {
		members []int
		family  bool
	}
	var plan []task
	families := make(map[familyKey]int)
	for u, g := range uniq {
		if mode == execDerive && Derivable(g.e.App, twinProtocol(g.c.Protocol), g.collect) {
			fk := familyOf(g)
			if t, ok := families[fk]; ok {
				plan[t].members = append(plan[t].members, u)
				continue
			}
			families[fk] = len(plan)
			plan = append(plan, task{members: []int{u}, family: true})
			continue
		}
		plan = append(plan, task{members: []int{u}})
	}

	// 3. Run every task on the pool. Each task writes only its own
	// members' slots.
	ucells := make([]Cell, len(uniq))
	uwalls := make([]time.Duration, len(uniq))
	tasks := make([]sweep.Task, len(plan))
	for t, p := range plan {
		if p.family {
			tasks[t].Do = func(context.Context) (any, error) {
				return nil, deriveFamily(uniq, p.members, ucells)
			}
			continue
		}
		u := p.members[0]
		g := uniq[u]
		tasks[t].Do = func(context.Context) (any, error) {
			if mode == execTimed {
				// The datum is the per-cell wall clock, and cells run
				// back-to-back in one process: without a collection
				// point between them, heap and scheduler state left by
				// earlier (large, dense) cells inflates later cells'
				// timings by integer factors. Start from a settled
				// runtime.
				runtime.GC()
				debug.FreeOSMemory()
			}
			start := time.Now()
			cell, err := runCell(g.e, g.c, g.procs, g.collect, nil)
			if err != nil {
				return nil, g.wrap(err)
			}
			ucells[u], uwalls[u] = cell, time.Since(start)
			return nil, nil
		}
	}
	if _, err := sweepPool.Run(context.Background(), tasks); err != nil {
		return nil, nil, err
	}

	// 4. Results in input order.
	out := make([]Cell, len(cells))
	walls := make([]time.Duration, len(cells))
	for i, u := range slot {
		out[i], walls[i] = ucells[u], uwalls[u]
	}
	return out, walls, nil
}

// runCell executes one cell with verification. The §5.3
// instrumentation is switchable: the network, placement and scaling
// grids render only timing and protocol accounting (no Stats), so they
// run with collection off — the engine then skips the word-usefulness
// collector and keeps only O(1) network totals, identical output for a
// fraction of the work. Anything that reads Cell.Stats must pass
// collect=true. A non-nil sink captures the run (a derivation base).
func runCell(e Experiment, c Config, procs int, collect bool, sink trace.Sink) (Cell, error) {
	res, err := apps.Run(e.Make(procs), tmk.Config{
		Procs:        procs,
		UnitPages:    c.Unit,
		Dynamic:      c.Dynamic,
		Protocol:     c.Protocol,
		Network:      c.Network,
		Placement:    c.Placement,
		Scale:        c.Scale,
		Barrier:      c.Barrier,
		BarrierRadix: c.BarrierRadix,
		Collect:      collect,
		Sink:         sink,
	})
	if err != nil {
		return Cell{}, fmt.Errorf("%s %s [%s]: %w", e.App, e.Dataset, c.Label, err)
	}
	return Cell{
		Time: res.Time, Queue: res.QueueDelay,
		Msgs: res.Messages, Bytes: res.Bytes,
		SwitchedUnits: res.SwitchedUnits,
		Rehomes:       res.Rehomes,
		RehomeBytes:   res.RehomeBytes,
		HandoffBytes:  res.HandoffBytes,
		Stats:         res.Stats,
	}, nil
}

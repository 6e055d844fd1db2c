package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/tmk"
)

// The scale-storm grid: Storm/large on the bus model at 256 and 1024
// processors under both static protocols, in the sparse/tree mode only
// (dense 1024-processor cells take minutes each). The grid and its
// order are fixed: listing 1024 first measured a steady 0.7 GB peak
// RSS on 2 vCPUs, where 256 first peaked at 1.2 GB, and a seed-chosen
// order flipped between the two.
var (
	stormProtocols = []string{"homeless", "home"}
	stormNetworks  = []string{"bus"}
	stormSizes     = []int{1024, 256}
)

func stormMode() harness.ScalingMode {
	modes := harness.ScalingModes()
	return modes[len(modes)-1] // sparse/tree
}

func stormExperiment() (harness.Experiment, error) {
	e, ok := apps.Lookup("Storm", "large")
	if !ok {
		return harness.Experiment{}, fmt.Errorf("storm has no large dataset")
	}
	return harness.Experiment{App: e.App, Dataset: e.Dataset, Paper: e.Paper, Make: e.Make}, nil
}

func stormObs(proto, network string, procs int, cell harness.Cell) obs {
	return obs{grid: "scaling", app: "Storm", dataset: "large", label: "4K",
		protocol: proto, network: network, placement: tmk.DefaultPlacement, procs: procs, cell: cell}
}

// runScaleStorm makes one untraced pass over the grid through
// harness.RunScaling, the function `dsmbench -scaling` calls.
func runScaleStorm(e harness.Experiment, protos []string, sizes []int, chk *checker) {
	curves, err := harness.RunScaling(e, protos, stormNetworks, sizes, []harness.ScalingMode{stormMode()})
	for _, c := range curves {
		for _, pt := range c.Points {
			chk.observe([]obs{stormObs(c.Protocol, c.Network, pt.Procs, pt.Cell)})
		}
	}
	if err != nil {
		chk.fail(fmt.Sprintf("scaling grid: %v", err))
	}
}

// tracedScaleStorm re-executes the grid's cells through the
// instrumented cell runner on a sweep pool as wide as the harness's,
// each from a settled runtime as RunScaling does.
func tracedScaleStorm(rec *recorder, pool *sweep.Pool, e harness.Experiment, protos []string, sizes []int, chk *checker) {
	mode := stormMode()
	grid := rec.begin("grid.scaling", 0, 0)
	var tasks []sweep.Task
	for _, proto := range protos {
		for _, network := range stormNetworks {
			for _, procs := range sizes {
				tasks = append(tasks, sweep.Task{Do: func(context.Context) (any, error) {
					runtime.GC()
					debug.FreeOSMemory()
					o := stormObs(proto, network, procs, harness.Cell{})
					res, err := rec.tracedCell(grid.ID, o.spec(), e.Make(procs), tmk.Config{
						Procs: procs, UnitPages: 1, Protocol: proto, Network: network,
						Scale: mode.Scale, Barrier: mode.Barrier, BarrierRadix: mode.Radix,
					}, nil)
					if err != nil {
						return nil, fmt.Errorf("traced scaling %s/%s n=%d: %w", proto, network, procs, err)
					}
					o.cell = harness.Cell{Time: res.Time, Msgs: res.Messages, Bytes: res.Bytes}
					chk.observe([]obs{o})
					return nil, nil
				}})
			}
		}
	}
	if _, err := pool.Run(context.Background(), tasks); err != nil {
		chk.fail(err.Error())
	}
	rec.end(grid)
}

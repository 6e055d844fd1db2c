package main

import (
	"time"

	"repro/internal/lrc"
	"repro/internal/mem"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/vc"
)

// Micro-probes time single data-structure operations from outside:
// each runs a fixed number of calls per repetition and reports the
// median ns per call over the repetitions.
const (
	probeReps  = 7
	probeCalls = 2000
)

// probeSink keeps probe results live so the calls are not optimized
// away.
var probeSink uint64

func nsPerCall(calls int, fn func()) float64 {
	var reps []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	return median(reps)
}

// diffPages returns a twin and three dirty versions of it: one run of
// 64 modified words, every other word modified, and every word
// modified.
func diffPages() (mem.Twin, [][]byte) {
	twin := mem.MakeTwin(make([]byte, mem.PageSize))
	shape := func(dirty func(w int) bool) []byte {
		p := make([]byte, mem.PageSize)
		for w := 0; w < mem.PageSize/8; w++ {
			if dirty(w) {
				p[w*8] = byte(w) | 1
			}
		}
		return p
	}
	return twin, [][]byte{
		shape(func(w int) bool { return w >= 128 && w < 192 }),
		shape(func(w int) bool { return w%2 == 0 }),
		shape(func(int) bool { return true }),
	}
}

// probeMem times EncodeDiffInto and Diff.Apply, averaged over the
// three page shapes.
func probeMem(m map[string]float64) {
	twin, pages := diffPages()
	var scratch mem.DiffScratch
	dst := make([]byte, mem.PageSize)
	enc, app := 0.0, 0.0
	for _, p := range pages {
		enc += nsPerCall(probeCalls, func() {
			d := mem.EncodeDiffInto(&scratch, twin, p)
			probeSink += uint64(d.WordCount())
		})
		d := mem.EncodeDiff(twin, p)
		app += nsPerCall(probeCalls, func() { d.Apply(dst) })
	}
	m["mem.encode_ns_per_page"] = enc / float64(len(pages))
	m["mem.apply_ns_per_page"] = app / float64(len(pages))
}

// probeN is the processor count of the clock probes: the top of the
// scaling sweep.
const probeN = 1024

// probeDevs is the deviation count of the probe stamps: a radix-4
// tree barrier's subtree plus a few lock-chain writers.
const probeDevs = 32

// probeClocks times Tracked.MergeStamp, Stamp.Covers and
// Store.DeltaDevsInto at n = 1024 on sparse stamps over one epoch.
func probeClocks(m map[string]float64) {
	vt := vc.New(probeN)
	for p := range vt {
		vt[p] = 4
	}
	epoch := vc.NewEpoch(1, vt)
	procs := make([]int32, probeDevs)
	seqs := make([]int32, probeDevs)
	for i := range procs {
		procs[i] = int32(i * (probeN / probeDevs))
		seqs[i] = 4 + int32(i%3) + 1
	}
	stamp := vc.SparseStamp(epoch, probeN, procs, seqs)
	tr := vc.NewTracked(probeN)
	tr.Rebase(epoch)
	m["vc.merge_ns.n1024"] = nsPerCall(probeCalls*10, func() { tr.MergeStamp(stamp) })
	other := vc.SparseStamp(epoch, probeN, procs[:probeDevs/2], seqs[:probeDevs/2])
	m["vc.covers_ns.n1024"] = nsPerCall(probeCalls*10, func() {
		if stamp.Covers(other) {
			probeSink++
		}
	})

	// A store holding six intervals per processor; the delta walks the
	// deviating processors' last two.
	store := lrc.NewStore(probeN)
	for p := 0; p < probeN; p++ {
		for seq := int32(1); seq <= 6; seq++ {
			ts := vc.SparseStamp(epoch, probeN, []int32{int32(p)}, []int32{seq})
			store.Publish(lrc.MakeInterval(vc.IntervalID{Proc: p, Seq: seq}, ts, []int{p}, nil))
		}
	}
	from := vc.New(probeN)
	for p := range from {
		from[p] = 4
	}
	seqTo := make([]int32, probeDevs)
	for i := range seqTo {
		seqTo[i] = 6
	}
	var out []*lrc.Interval
	m["lrc.delta_ns.n1024"] = nsPerCall(probeCalls, func() {
		out = store.DeltaDevsInto(from, procs, seqTo, out)
		probeSink += uint64(len(out))
	})
}

// probeNet times one Exchange pricing per registered model family
// member the engine prices most: ideal, bus and switch.
func probeNet(m map[string]float64) {
	for _, name := range []string{"ideal", "bus", "switch"} {
		model, err := netmodel.New(name, sim.DefaultCostModel())
		if err != nil {
			continue
		}
		at := sim.Duration(0)
		i := 0
		m["netmodel.exchange_ns."+name] = nsPerCall(probeCalls*10, func() {
			i++
			t := model.Exchange(i%8, (i+3)%8, 64, 4096, at)
			at += t.Total() / 4
			probeSink += uint64(t.Total())
		})
	}
}

// probeAll runs every micro-probe.
func probeAll(m map[string]float64) {
	probeMem(m)
	probeClocks(m)
	probeNet(m)
}

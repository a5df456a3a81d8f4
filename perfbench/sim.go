package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"frieda/internal/experiments"
	"frieda/internal/simrun"
	"frieda/internal/strategy"
)

// The 65,536-worker row of BENCH_scale.json, which the simulated cell must
// reproduce exactly.
const (
	scaleWorkers     = 65536
	scaleMakespanSec = 1310732.8629865358
	scaleBytesGB     = 16384.015
)

// scaleRep is one build-and-run of the scale cell.
type scaleRep struct {
	provisionS, buildS, runS float64
	tasks, failed            int
	events, flows            uint64
	mallocs                  uint64
	peakHeapMB               float64
	bytesMB                  float64
}

// scaleOnce builds the BLAST real-time cell on the fat-tree testbed with
// batched scheduling and the disk model, exactly as `friedabench -exp
// scale` does, and runs it.
func scaleOnce(withMallocs bool) (scaleRep, error) {
	wl := experiments.BLASTWorkload(1, 1) // input generation is never timed
	runtime.GC()

	start := time.Now()
	tb := experiments.NewTreeTestbed(scaleWorkers, 1)
	provisioned := time.Now()
	cfg := simrun.Config{Strategy: strategy.RealTimeRemote, ModelDiskIO: true, BatchSched: true}
	r, err := simrun.NewRunner(tb.Cluster, tb.Source, cfg, wl)
	if err != nil {
		return scaleRep{}, err
	}
	for _, vm := range tb.Workers {
		r.AddWorker(vm)
	}
	built := time.Now()
	runtime.GC() // as the scale sweep does: the loop should not pay for setup garbage

	var ms0 runtime.MemStats
	if withMallocs {
		runtime.ReadMemStats(&ms0)
	}
	heap := startHeapSampler()
	runStart := time.Now()
	res, err := r.Run()
	runS := time.Since(runStart).Seconds()
	peak := heap.stop()
	if err != nil {
		return scaleRep{}, err
	}
	rep := scaleRep{
		provisionS: provisioned.Sub(start).Seconds(),
		buildS:     built.Sub(provisioned).Seconds(),
		runS:       runS,
		tasks:      len(wl.Tasks),
		failed:     res.Abandoned,
		events:     tb.Engine.Fired(),
		flows:      tb.Cluster.Network().FlowsCompleted,
		peakHeapMB: peak / 1e6,
		bytesMB:    res.BytesMoved / 1e6,
	}
	if withMallocs {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rep.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	if res.MakespanSec != scaleMakespanSec || res.BytesMoved/1e9 != scaleBytesGB || res.Succeeded != len(wl.Tasks) {
		return rep, fmt.Errorf("scale cell diverged from BENCH_scale.json: makespan %v s (want %v), bytes %v GB (want %v), %d/%d tasks succeeded",
			res.MakespanSec, scaleMakespanSec, res.BytesMoved/1e9, scaleBytesGB, res.Succeeded, len(wl.Tasks))
	}
	return rep, nil
}

// runSimScale measures the simulator cell. The seed does not apply: the
// cell must reproduce BENCH_scale.json's row, which fixes seed 1.
func runSimScale(o options) (*result, error) {
	plain := o.seconds
	if o.trace {
		plain = o.seconds / 2
	}
	var reps []scaleRep
	if err := timed(budget(plain), func() error {
		rep, err := scaleOnce(false)
		reps = append(reps, rep)
		return err
	}); err != nil {
		return nil, err
	}
	if !o.trace {
		return simEndToEnd(reps), nil
	}

	dir := filepath.Join(o.out, "sim-scale")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer cpu.Close()
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return nil, err
	}
	var traced []scaleRep
	var phases []span
	epoch := time.Now()
	err = timed(budget(o.seconds-plain), func() error {
		t0 := int64(time.Since(epoch))
		rep, err := scaleOnce(true)
		traced = append(traced, rep)
		// One span per phase of the repetition, parented to the repetition.
		id := int64(len(phases) + 1)
		end := int64(time.Since(epoch))
		phases = append(phases,
			span{ID: id, Name: "sim-scale.rep", Group: len(traced) - 1, Start: t0, End: end},
			span{ID: id + 1, Parent: id, Name: "cloud.provision", Group: len(traced) - 1, Start: t0, End: t0 + int64(rep.provisionS*1e9)},
			span{ID: id + 2, Parent: id, Name: "simrun.build", Group: len(traced) - 1, Start: t0 + int64(rep.provisionS*1e9), End: t0 + int64((rep.provisionS+rep.buildS)*1e9)},
			span{ID: id + 3, Parent: id, Name: "simrun.run", Group: len(traced) - 1, Start: end - int64(rep.runS*1e9), End: end})
		return err
	})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := cpu.Close(); err != nil {
		return nil, err
	}

	r := newLayerResult()
	for _, rep := range append(append([]scaleRep(nil), reps...), traced...) {
		r.Attempted += rep.tasks
		r.Failed += rep.failed
	}
	r.set("failed_share", ratio(float64(r.Failed), float64(r.Attempted)), "share")
	var prov, build, runS, usEvent, usFlow, allocs []float64
	for _, rep := range traced {
		prov = append(prov, rep.provisionS)
		build = append(build, rep.buildS)
		runS = append(runS, rep.runS)
		usEvent = append(usEvent, rep.runS*1e6/float64(rep.events))
		usFlow = append(usFlow, rep.runS*1e6/float64(rep.flows))
		allocs = append(allocs, float64(rep.mallocs)/float64(rep.events))
	}
	last := traced[len(traced)-1]
	r.set("cloud.provision_s", median(prov), "s")
	r.set("simrun.build_s", median(build), "s")
	r.set("sim.events", float64(last.events), "count")
	r.set("sim.us_per_event", median(usEvent), "us")
	r.set("sim.allocs_per_event", median(allocs), "count")
	r.set("netsim.flows", float64(last.flows), "count")
	r.set("netsim.us_per_flow", median(usFlow), "us")
	r.set("trace.run_s_ratio", ratio(median(runS), median(simRunTimes(reps))), "x")
	r.note("%d untraced + %d profiled repetitions", len(reps), len(traced))
	if err := layerShares(r, filepath.Join(dir, "cpu.pprof")); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), phases); err != nil {
		return nil, err
	}
	if err := writeAllocs(filepath.Join(dir, "allocs.pprof")); err != nil {
		return nil, err
	}
	r.note("spans, cpu.pprof and allocs.pprof in %s", dir)
	return r, nil
}

// simEndToEnd reduces untraced repetitions to the end-to-end metrics. The
// simulator has no per-task wall latency; its latency rows are the wall
// time the loop spends per simulated task, median and p99 over the
// repetitions, and data_mb_per_s is simulated megabytes per wall second.
func simEndToEnd(reps []scaleRep) *result {
	r := &result{Correct: true}
	var runS, setupS, tps, mbps, heap, perTask []float64
	for _, rep := range reps {
		runS = append(runS, rep.runS)
		setupS = append(setupS, rep.provisionS+rep.buildS)
		tps = append(tps, float64(rep.tasks-rep.failed)/rep.runS)
		mbps = append(mbps, rep.bytesMB/rep.runS)
		heap = append(heap, rep.peakHeapMB)
		perTask = append(perTask, rep.runS*1e3/float64(rep.tasks))
		r.Attempted += rep.tasks
		r.Failed += rep.failed
	}
	r.set("run_s", median(runS), "s")
	r.set("setup_s", median(setupS), "s")
	r.set("tasks_per_s", median(tps), "1/s")
	r.set("data_mb_per_s", median(mbps), "MB/s")
	r.set("task_latency_p50_ms", quantile(perTask, 0.50), "ms")
	r.set("task_latency_p99_ms", quantile(perTask, 0.99), "ms")
	r.set("ok_share", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), "share")
	r.set("peak_heap_mb", median(heap), "MB")
	r.note("%d repetitions of the %d-worker cell; makespan and bytes match BENCH_scale.json", len(reps), scaleWorkers)
	return r
}

func simRunTimes(reps []scaleRep) []float64 {
	out := make([]float64, len(reps))
	for i, rep := range reps {
		out[i] = rep.runS
	}
	return out
}

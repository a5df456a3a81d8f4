package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// rtWorkers and rtCores shape every real-runtime deployment: one benchmark
// process on a 2-core box runs one worker with a slot per core (every
// workload's strategy is Multicore). A second worker would expose the
// master's open staging race (ROADMAP item 1): the master makes a worker
// dispatchable before it has sent that worker's registration ACK and
// common files, so a random few jobs lose a task and two runs of the same
// code disagree on their failures. With one worker, execution starts only
// after its registration and staging are complete.
const (
	rtWorkers = 1
	rtCores   = 2
)

// jobTimeout bounds one job, so a hung run fails well inside the
// benchmark's 180-second limit.
const jobTimeout = 60 * time.Second

// rtWorkload is one real-runtime job: its inputs, its deployment and how
// each task's output is checked.
type rtWorkload struct {
	name  string
	tcp   bool // loopback TCP (every message crosses protocol.Codec); else mem
	strat strategy.Config
	// source holds every file; inputs is the partitioned part of it
	// (common files excluded) and groups its partition plan.
	source *catalog.MemSource
	inputs *catalog.Catalog
	groups int
	// fileGroup maps input and output file names to their group.
	fileGroup  map[string]int
	newProgram func() core.Program // one instance per worker
	collect    bool                // return task outputs through OutputSink
	// verify checks one terminal result against the references computed
	// before timing and returns "" or the failure cause.
	verify func(res protocol.TaskResult, sink *core.MemStore) string
}

// jobStats is one job's measurements.
type jobStats struct {
	setupS, runS float64
	attempted    int
	ok           int
	fails        failures
	bytes        int64 // BytesMoved + OutputBytes
	latMs        []float64
	peakHeapMB   float64
	rt           runtimeDelta
}

// runJob deploys controller, master and workers in-process, submits the
// workload as one job, waits for it and verifies every result.
func (w *rtWorkload) runJob(p *probe) (jobStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	runtime.GC() // start every job from a collected heap

	var base transport.Transport = transport.NewMem(nil)
	if w.tcp {
		base = newLoopback()
	}
	tr := &probeTransport{inner: base, p: p}
	var src catalog.Source = w.source
	if p.traced {
		src = &probeSource{Source: w.source, p: p}
	}
	mc := core.MasterConfig{Source: src}
	var sink *core.MemStore
	if w.collect {
		sink = core.NewMemStore()
		mc.OutputSink = sink
	}

	before := readRuntime()
	heap := startHeapSampler()
	start := time.Now()
	ctl, err := core.NewController(core.ControllerConfig{
		Strategy:        w.strat,
		Transport:       tr,
		MasterAddr:      "frieda-master",
		InProcessMaster: true,
		Master:          mc,
		Workers:         rtWorkers,
	})
	if err != nil {
		heap.stop()
		return jobStats{}, err
	}
	if err := ctl.Start(ctx); err != nil {
		heap.stop()
		return jobStats{}, err
	}
	for i := 0; i < rtWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		var store core.Store = core.NewMemStore()
		prog := w.newProgram()
		if p.traced {
			store = &probeStore{Store: store, p: p, worker: name}
			prog = &probeProgram{inner: prog, p: p, worker: name}
		}
		if _, err := ctl.SpawnWorker(ctx, core.WorkerConfig{Name: name, Cores: rtCores, Store: store, Program: prog}); err != nil {
			heap.stop()
			return jobStats{}, err
		}
	}
	rep, err := ctl.Wait(ctx)
	wall := time.Since(start).Seconds()
	peak := heap.stop()
	after := readRuntime()
	if err != nil {
		return jobStats{}, fmt.Errorf("job: %w", err)
	}
	if err := ctl.Shutdown(); err != nil {
		return jobStats{}, fmt.Errorf("shutdown: %w", err)
	}
	// Both ends' view of a lost worker: the master's and the worker's own
	// error (the master's report carries only the former).
	var workerErrs []string
	for _, e := range ctl.Errors() {
		workerErrs = append(workerErrs, e.Worker+": "+e.Detail)
	}

	st := jobStats{
		setupS:     wall - rep.MakespanSec,
		runS:       rep.MakespanSec,
		attempted:  w.groups,
		bytes:      rep.BytesMoved + rep.OutputBytes,
		peakHeapMB: peak / 1e6,
		rt:         after.minus(before),
	}
	seen := make(map[int]bool, w.groups)
	for _, res := range rep.Results {
		if seen[res.GroupIndex] {
			st.fails.add("duplicate_result", 1, res)
			continue
		}
		seen[res.GroupIndex] = true
		if cause := w.verify(res, sink); cause != "" {
			if cause == "worker_lost" {
				res.Error += " after " + strings.Join(workerErrs, "; ")
			}
			st.fails.add(cause, 1, res)
			continue
		}
		st.ok++
	}
	if missing := w.groups - len(seen); missing > 0 {
		st.fails.add("no_result", missing, protocol.TaskResult{GroupIndex: -1})
	}
	p.mu.Lock()
	st.latMs = p.latMs
	p.mu.Unlock()
	return st, nil
}

// runRT measures a real-runtime workload: jobs back to back for the run's
// seconds (the median job absorbs the first job's one-time costs). A
// traced run spends the first half untraced and the second half traced.
func runRT(w *rtWorkload, o options) (*result, error) {
	epoch := time.Now()
	plain := o.seconds
	if o.trace {
		plain = o.seconds / 2
	}
	var jobs []jobStats
	if err := timed(budget(plain), func() error {
		st, err := w.runJob(newProbe(epoch, false, false, nil))
		jobs = append(jobs, st)
		return err
	}); err != nil {
		return nil, err
	}
	if !o.trace {
		return w.endToEnd(jobs), nil
	}

	dir := filepath.Join(o.out, w.name)
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
	var traced []jobStats
	var probes []*probe
	err = timed(budget(o.seconds-plain), func() error {
		p := newProbe(epoch, true, len(probes) == 0, w.fileGroup)
		st, err := w.runJob(p)
		traced = append(traced, st)
		probes = append(probes, p)
		return err
	})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := cpu.Close(); err != nil {
		return nil, err
	}
	return w.perLayer(dir, jobs, traced, probes)
}

// endToEnd reduces untraced jobs to the end-to-end metrics.
func (w *rtWorkload) endToEnd(jobs []jobStats) *result {
	r := &result{Correct: true}
	var runS, setupS, tps, mbps, heap, lat []float64
	var fails failures
	for _, st := range jobs {
		runS = append(runS, st.runS)
		setupS = append(setupS, st.setupS)
		tps = append(tps, ratio(float64(st.ok), st.runS))
		mbps = append(mbps, ratio(float64(st.bytes)/1e6, st.runS))
		heap = append(heap, st.peakHeapMB)
		lat = append(lat, st.latMs...)
		r.Attempted += st.attempted
		r.Failed += st.attempted - st.ok
		fails.merge(st.fails)
	}
	r.Correct = len(fails.count) == 0
	r.set("run_s", median(runS), "s")
	r.set("setup_s", median(setupS), "s")
	r.set("tasks_per_s", median(tps), "1/s")
	r.set("data_mb_per_s", median(mbps), "MB/s")
	r.set("task_latency_p50_ms", quantile(lat, 0.50), "ms")
	r.set("task_latency_p99_ms", quantile(lat, 0.99), "ms")
	r.set("ok_share", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), "share")
	r.set("peak_heap_mb", median(heap), "MB")
	r.note("%d jobs; %d task-latency samples", len(jobs), len(lat))
	r.note("failure causes: %s", fails)
	return r
}

// perLayer reduces a traced run to the per-layer metrics and writes its
// spans and profiles under dir.
func (w *rtWorkload) perLayer(dir string, plain, traced []jobStats, probes []*probe) (*result, error) {
	r := newLayerResult()
	all := append(append([]jobStats(nil), plain...), traced...)
	var fails failures
	var lat []float64
	var rtd runtimeDelta
	var gcCycles []float64
	for _, st := range all {
		r.Attempted += st.attempted
		r.Failed += st.attempted - st.ok
		fails.merge(st.fails)
	}
	plainTasks := 0
	for _, st := range plain {
		lat = append(lat, st.latMs...)
		rtd = rtd.plus(st.rt)
		gcCycles = append(gcCycles, float64(st.rt.gcCycles))
		plainTasks += st.attempted
	}
	r.Correct = len(fails.count) == 0
	r.set("failed_share", ratio(float64(r.Failed), float64(r.Attempted)), "share")
	for _, c := range failureCauses {
		r.set("fail."+c, float64(fails.count[c]), "count")
	}
	r.set("core.latency_samples", float64(len(lat)), "count")
	r.set("trace.run_s_ratio", ratio(median(runTimes(traced)), median(runTimes(plain))), "x")
	r.set("runtime.alloc_mb_per_task", ratio(rtd.allocBytes/1e6, float64(plainTasks)), "MB")
	r.set("runtime.gc_cycles", median(gcCycles), "count")
	r.set("runtime.gc_cpu_share", ratio(rtd.gcCPU, rtd.totalCPU), "share")
	r.set("partition.plan_ms", w.planMs(), "ms")

	var refill, wait, exec, send []float64
	var execNs, readNs, appendNs, wire, readBytes, appendBytes int64
	var ctrl, data, files, tasks int
	var runSum float64
	var outMB, outMs, opensPerJob []float64
	for i, p := range probes {
		refill = append(refill, p.refillUs...)
		wait = append(wait, p.inputWaitMs...)
		exec = append(exec, p.execMs...)
		send = append(send, p.sendUs...)
		execNs += p.execNs
		readNs += p.readNs
		appendNs += p.appendNs
		wire += p.wireBytes
		readBytes += p.readBytes
		appendBytes += p.appendBytes
		ctrl += p.ctrlMsgs
		data += p.dataMsgs
		files += p.filesSent
		tasks += traced[i].attempted
		runSum += traced[i].runS
		outMB = append(outMB, float64(p.outBytes)/1e6)
		outMs = append(outMs, float64(p.outSendNs)/1e6)
		opensPerJob = append(opensPerJob, float64(p.opens))
	}
	slots := rtWorkers * rtCores
	r.set("core.master.refill_us_p50", quantile(refill, 0.50), "us")
	r.set("core.master.refill_us_p99", quantile(refill, 0.99), "us")
	r.set("core.ctrl_msgs_per_task", ratio(float64(ctrl), float64(tasks)), "count")
	r.set("core.stream.data_msgs_per_file", ratio(float64(data), float64(files)), "count")
	r.set("core.worker.input_wait_ms_p50", quantile(wait, 0.50), "ms")
	r.set("core.worker.input_wait_ms_p99", quantile(wait, 0.99), "ms")
	r.set("core.worker.exec_ms_p50", quantile(exec, 0.50), "ms")
	r.set("core.worker.exec_ms_p99", quantile(exec, 0.99), "ms")
	r.set("core.worker.slot_busy_share", ratio(float64(execNs)/1e9, float64(slots)*runSum), "share")
	r.set("core.worker.output_mb", median(outMB), "MB")
	r.set("core.worker.output_send_ms", median(outMs), "ms")
	r.set("transport.send_us_p50", quantile(send, 0.50), "us")
	r.set("transport.send_us_p99", quantile(send, 0.99), "us")
	r.set("transport.bytes_per_task", ratio(float64(wire), float64(tasks)), "B")
	r.set("catalog.read_mb_per_s", ratio(float64(readBytes)/1e6, float64(readNs)/1e9), "MB/s")
	r.set("catalog.opens", median(opensPerJob), "count")
	r.set("core.store.append_mb_per_s", ratio(float64(appendBytes)/1e6, float64(appendNs)/1e9), "MB/s")
	if w.tcp {
		enc, dec, size, err := replayCodec(probes[0].mix)
		if err != nil {
			return nil, fmt.Errorf("codec replay: %w", err)
		}
		r.set("protocol.encode_ns_per_msg", enc, "ns")
		r.set("protocol.decode_ns_per_msg", dec, "ns")
		r.set("protocol.wire_bytes_per_msg", size, "B")
		r.note("codec replay mix: %s", mixSummary(probes[0].mix))
	}
	r.note("%d untraced + %d traced jobs; %d task-latency samples; %d refill, %d exec samples",
		len(plain), len(traced), len(lat), len(refill), len(exec))
	r.note("failure causes: %s", fails)

	if err := layerShares(r, filepath.Join(dir, "cpu.pprof")); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), probes[0].spans); err != nil {
		return nil, err
	}
	if err := writeAllocs(filepath.Join(dir, "allocs.pprof")); err != nil {
		return nil, err
	}
	r.note("spans, cpu.pprof and allocs.pprof in %s", dir)
	return r, nil
}

// planMs times the workload's grouping generator on its catalog (median
// of five runs).
func (w *rtWorkload) planMs() float64 {
	gen, err := w.strat.Generator()
	if err != nil {
		return 0
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := gen.Generate(w.inputs); err != nil {
			return 0
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms)
}

func runTimes(jobs []jobStats) []float64 {
	out := make([]float64, len(jobs))
	for i, st := range jobs {
		out[i] = st.runS
	}
	return out
}

// failureCauses are the causes a real-runtime task can fail with; each is
// reported as fail.<cause> in the traced run. Every failed task counts in
// failed and ok_share and makes the run incorrect.
var failureCauses = []string{
	"missing_common_file", // the program ran before the common file's first chunk landed
	"partial_common_file", // ... before its last chunk landed
	"missing_input",       // the program could not open its own input
	"worker_lost",         // the master lost the task's worker
	"runtime_error",       // any other failure the runtime reported
	"output_mismatch",     // the output differs from the reference
	"no_result",           // the job finished without a result for the task
	"duplicate_result",    // the job reported the task twice
}

// failures counts failed tasks by cause and keeps the first example of
// each.
type failures struct {
	count   map[string]int
	example map[string]string
}

func (f *failures) note(cause string, n int, example string) {
	if f.count == nil {
		f.count = make(map[string]int)
		f.example = make(map[string]string)
	}
	if _, ok := f.example[cause]; !ok {
		f.example[cause] = example
	}
	f.count[cause] += n
}

func (f *failures) add(cause string, n int, res protocol.TaskResult) {
	detail := res.Error
	if detail == "" {
		detail = res.Output
	}
	if len(detail) > 240 {
		detail = detail[:240]
	}
	f.note(cause, n, fmt.Sprintf("group %d on %s: %q", res.GroupIndex, res.Worker, detail))
}

func (f *failures) merge(g failures) {
	for c, n := range g.count {
		f.note(c, n, g.example[c])
	}
}

func (f failures) String() string {
	if len(f.count) == 0 {
		return "none"
	}
	names := make([]string, 0, len(f.count))
	for c := range f.count {
		names = append(names, c)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, c := range names {
		parts[i] = fmt.Sprintf("%s=%d (first: %s)", c, f.count[c], f.example[c])
	}
	return strings.Join(parts, "; ")
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- Loopback TCP ---

// loopback is transport.TCP on 127.0.0.1 with logical addresses: Listen
// binds an ephemeral port under the name, Dial of the name connects to it.
type loopback struct {
	tcp   *transport.TCP
	mu    sync.Mutex
	addrs map[string]string
}

func newLoopback() *loopback {
	return &loopback{tcp: transport.NewTCP(), addrs: make(map[string]string)}
}

func (l *loopback) Listen(name string) (transport.Listener, error) {
	ln, err := l.tcp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.addrs[name] = ln.Addr()
	l.mu.Unlock()
	return ln, nil
}

func (l *loopback) Dial(name string) (transport.Conn, error) {
	l.mu.Lock()
	addr, ok := l.addrs[name]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("loopback: nothing listens as %q", name)
	}
	return l.tcp.Dial(addr)
}

// --- Go runtime counters ---

// runtimeDelta is the Go runtime's work between two readings.
type runtimeDelta struct {
	gcCycles   uint64
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeDelta) plus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.gcCycles + b.gcCycles, a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readRuntime reads the cumulative runtime counters (no stop-the-world).
func readRuntime() runtimeDelta {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeDelta{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapSampler tracks the peak of live heap objects while it runs.
type heapSampler struct {
	stopC chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopC: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-h.stopC:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopC)
	return <-h.done
}

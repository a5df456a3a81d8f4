package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the layers whose share of the traced run's CPU samples is
// reported as <layer>.cpu_share.
var cpuLayers = []string{
	"core", "protocol", "transport", "catalog", "workload",
	"sim", "netsim", "simrun", "cloud", "storage", "runtime",
}

// layerShares reads a CPU profile and sets <layer>.cpu_share: the share of
// CPU time whose sample is charged to that layer (see layerOfStack).
func layerShares(r *result, path string) error {
	samples, err := readTraces(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range samples {
		byLayer[layerOfStack(s.frames)] += s.cpu
		total += s.cpu
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_share", ratio(float64(byLayer[l]), float64(total)), "share")
	}
	r.note("cpu profile: %d stacks, %.2f CPU-seconds; bench=%.3f other=%.3f of it in the benchmark itself and in unlayered code",
		len(samples), total.Seconds(),
		ratio(float64(byLayer["bench"]), float64(total)), ratio(float64(byLayer["other"]), float64(total)))
	return nil
}

// stackSample is one stack of a CPU profile and the CPU time charged to it.
type stackSample struct {
	cpu    time.Duration
	frames []string // function names, leaf first
}

// readTraces lists a CPU profile's stacks with the Go toolchain's pprof
// (`go tool pprof -traces`), which prints each stack as a block: the first
// line holds the sample's value and the leaf function, every further line
// one caller, and a dashed line ends the block.
func readTraces(path string) ([]stackSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	var samples []stackSample
	var cur *stackSample
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if cur == nil {
			if !strings.HasPrefix(line, " ") {
				continue // the header before the first block
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: bad sample value in %q", line)
			}
			samples = append(samples, stackSample{cpu: d})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		cur.frames = append(cur.frames, fields[0]) // drops an "(inline)" mark
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pprof -traces printed no samples")
	}
	return samples, nil
}

// layerOfStack charges one sample, frames leaf first. Allocation and GC
// frames belong to the runtime layer; every other runtime and standard
// library frame (copies, maps, channels, locks) is charged to the nearest
// caller that belongs to a layer. gob belongs to protocol, and the socket
// path (net, internal/poll, syscall) to transport. Stacks made only of
// runtime frames (GC workers, the scheduler) are runtime's.
func layerOfStack(frames []string) string {
	onlyRuntime := true
	for _, fn := range frames {
		pkg := packageOf(fn)
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/") {
			if isAllocOrGC(fn) {
				return "runtime"
			}
			continue
		}
		onlyRuntime = false
		if l := layerOf(pkg); l != "" {
			return l
		}
	}
	if onlyRuntime {
		return "runtime"
	}
	return "other"
}

// layerOf maps a package path to its layer, or "" to keep walking.
func layerOf(pkg string) string {
	switch pkg {
	case "main":
		return "bench"
	case "encoding/gob":
		return "protocol"
	case "net", "internal/poll", "syscall":
		return "transport"
	}
	rest, ok := strings.CutPrefix(pkg, "frieda/internal/")
	if !ok {
		return ""
	}
	if strings.HasPrefix(rest, "workload/") {
		return "workload"
	}
	switch rest {
	case "core", "protocol", "transport", "catalog", "partition", "sim", "netsim", "simrun", "cloud", "storage":
		return rest
	}
	return "" // e.g. ctrlplane, strategy, experiments: charged to their caller
}

// isAllocOrGC reports whether a runtime function allocates or collects.
func isAllocOrGC(fn string) bool {
	name := fn[strings.LastIndex(fn, ".")+1:]
	for _, p := range []string{"malloc", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"rawstring", "rawbyteslice", "concatstring", "slicebytetostring", "gc", "GC", "mark", "scan",
		"sweep", "bgsweep", "bgscavenge", "mProf", "nextFree", "refill", "allocSpan", "grow"} {
		if strings.Contains(name, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a pprof function name such as
// "frieda/internal/core.(*Master).dispatch" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

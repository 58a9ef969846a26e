package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// moduleLayers are the simulator packages host time and allocations are
// charged to. Other sais packages (rng, units, metrics, trace, toeplitz)
// are helpers: like runtime and standard-library frames, they are
// charged to the module that called them.
var moduleLayers = map[string]bool{}

func init() {
	for _, l := range hostLayers {
		if l != "gc" && l != "other" {
			moduleLayers[l] = true
		}
	}
}

// frameLayer returns the module a function belongs to, or "" when the
// frame is charged to its caller.
func frameLayer(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold package paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	if pkg == "sais/cluster" {
		return "cluster"
	}
	if name, ok := strings.CutPrefix(pkg, "sais/internal/"); ok && moduleLayers[name] {
		return name
	}
	return ""
}

// isGCFrame reports whether fn is the collector's own work: background
// mark workers, the sweeper, the scavenger, or the profiler's marker for
// GC time spent off any goroutine.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime._GC"
}

// chargeStack returns the layer a stack (innermost frame first) is
// charged to: its innermost module frame; failing that gc when the
// collector is on the stack; otherwise other.
func chargeStack(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
	}
	return "other"
}

// cpuProfile profiles fn and returns each layer's share of the samples
// taken while it ran, with the sample count.
func cpuProfile(fn func()) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[chargeStack(s.Frames)] += s.Count
		total += s.Count
	}
	frac := map[string]float64{}
	if total == 0 {
		return frac, 0, nil
	}
	for l, c := range counts {
		frac[l] = float64(c) / float64(total)
	}
	return frac, total, nil
}

// allocProfile runs fn with every heap allocation sampled and returns
// the allocations made meanwhile, charged to layers. The runtime does
// not profile a tiny allocation (under 16 pointer-free bytes) that it
// packs into an already open block; those are counted under "tiny".
func allocProfile(fn func()) map[string]uint64 {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	before := allocsByLayer()
	fn()
	after := allocsByLayer()
	byLayer := map[string]uint64{}
	for l, n := range after {
		byLayer[l] = n - before[l]
	}
	return byLayer
}

// allocsByLayer charges every allocation in the runtime's memory profile
// to a layer, and reads the count of packed tiny allocations. The
// profile publishes an allocation, and the collector folds the per-P
// tiny counts into the total, only once a cycle has completed after it,
// so two cycles run first.
func allocsByLayer() map[string]uint64 {
	runtime.GC()
	runtime.GC()
	tiny := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(tiny)
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := map[string]uint64{"tiny": tiny[0].Value.Uint64()}
	var frames []string
	for _, r := range recs[:n] {
		frames = frames[:0]
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		out[chargeStack(frames)] += uint64(r.AllocObjects)
	}
	return out
}

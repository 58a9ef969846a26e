package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"sais/cluster"
	"sais/internal/units"
)

func TestFrameLayer(t *testing.T) {
	cases := map[string]string{
		"sais/internal/netsim.(*Fabric).Send":                          "netsim",
		"sais/cluster.run.func3":                                       "cluster",
		"sais/internal/sim.(*Engine).RunBefore":                        "sim",
		"sais/internal/sim.push[go.shape.*sais/internal/netsim.Frame]": "sim",
		"sais/internal/rng.(*Rand).Uint64":                             "", // helper module
		"sais/internal/trace.(*SpanLog).Emit":                          "",
		"runtime.mallocgc":                                             "",
		"sort.insertionSort":                                           "",
		"main.main":                                                    "",
	}
	for fn, want := range cases {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestChargeStack(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"innermost module frame wins",
			[]string{"sais/internal/cpu.(*Core).Submit", "sais/internal/client.(*Node).softirq", "sais/internal/sim.(*Engine).Run"}, "cpu"},
		{"runtime charged to its caller",
			[]string{"runtime.memmove", "runtime.growslice", "sais/internal/shard.(*Engine).collect", "sais/internal/shard.(*Engine).Run"}, "shard"},
		{"GC assist charged to the allocating module",
			[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "sais/internal/netsim.(*Fabric).Send"}, "netsim"},
		{"helper module charged to its caller",
			[]string{"sais/internal/rng.(*Rand).Float64", "sais/internal/faults.(*Injector).Drop", "sais/internal/netsim.(*Fabric).Send"}, "faults"},
		{"background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{"sweeper", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "gc"},
		{"GC off any goroutine", []string{"runtime._GC"}, "gc"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "other"},
		{"harness", []string{"main.(*bench).timed", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := chargeStack(c.frames); got != c.want {
			t.Errorf("%s: chargeStack = %q, want %q", c.name, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.Count
		for _, f := range s.Frames {
			if f == "sais/perfbench.spin" || f == "main.spin" {
				inSpin += s.Count
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin; want most", inSpin, total)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

// tinyRead is a small read workload on one engine.
func tinyRead() workload {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.BytesPerProc = 4 * units.MiB
	return workload{Name: "tiny", Runs: []cluster.Config{cfg}}
}

func TestHostFractionsSumToOne(t *testing.T) {
	frac, samples, err := cpuProfile(func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			runRep(context.Background(), tinyRead(), false)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU samples taken")
	}
	var sum float64
	for _, l := range hostLayers {
		sum += frac[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("host fractions sum to %v: %v", sum, frac)
	}
	if frac["sim"]+frac["netsim"]+frac["client"]+frac["pfs"] == 0 {
		t.Fatalf("no time charged to the simulator's modules: %v", frac)
	}
}

func TestAllocationsSumToRuntimeCount(t *testing.T) {
	// Enough repetitions that the profile snapshots' own few hundred
	// allocations stay well inside the slack.
	var mallocs uint64
	byLayer := allocProfile(func() {
		for i := 0; i < 20; i++ {
			r := runRep(context.Background(), tinyRead(), false)
			if r.Err != nil {
				t.Error(r.Err)
			}
			mallocs += r.Mallocs
		}
	})
	var sum uint64
	for _, l := range allocLayers {
		sum += byLayer[l]
	}
	if diff := math.Abs(float64(sum) - float64(mallocs)); diff > allocSlack*float64(mallocs) {
		t.Fatalf("layers sum to %d allocations, runtime counted %d: %v", sum, mallocs, byLayer)
	}
	if byLayer["sim"] == 0 || byLayer["netsim"] == 0 {
		t.Fatalf("engine or fabric allocations not attributed: %v", byLayer)
	}
}

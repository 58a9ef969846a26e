package sim

// Hot-path engine benchmarks. The three mixes mirror the engine's real
// load: steady schedule/fire (every modelled interrupt), cancel-heavy
// (retry timers re-armed on every ack), and deadline-scan (fan-out
// timers where all but one are cancelled). `make bench-record`
// snapshots these into BENCH_sim.json; `make bench-check` compares.

import (
	"testing"

	"sais/internal/units"
)

func BenchmarkEngineHotScheduleFire(b *testing.B) {
	e := NewEngine()
	var step units.Time
	var tick Event
	tick = func(units.Time) {
		step++
		e.After(step%97+1, tick)
	}
	for i := 0; i < 256; i++ {
		e.At(units.Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

func BenchmarkEngineHotCancelHeavy(b *testing.B) {
	e := NewEngine()
	const chains = 64
	timeout := func(units.Time) {}
	timers := make([]Timer, chains)
	ticks := make([]Event, chains)
	for i := 0; i < chains; i++ {
		i := i
		ticks[i] = func(units.Time) {
			timers[i].Cancel()
			timers[i] = e.After(100000, timeout)
			e.After(units.Time(i%13+1), ticks[i])
		}
		e.At(units.Time(i), ticks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

func BenchmarkEngineHotDeadlineScan(b *testing.B) {
	e := NewEngine()
	const fan = 8
	var tick Event
	tmp := make([]Timer, fan)
	tick = func(units.Time) {
		for j := 0; j < fan; j++ {
			tmp[j] = e.After(units.Time(1000+j), tick)
		}
		for j := 1; j < fan; j++ {
			tmp[j].Cancel()
		}
	}
	e.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// BenchmarkEngineHotImmediately exercises the same-instant FIFO fast
// path: each fired event chains another at the current instant, the
// NIC→APIC→core hand-off pattern.
func BenchmarkEngineHotImmediately(b *testing.B) {
	e := NewEngine()
	var chain Event
	chain = func(units.Time) {
		e.Immediately(chain)
	}
	e.At(0, chain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// BenchmarkServerSubmit measures one steady-state serverLoop cycle:
// nine FIFO submissions and their completions.
func BenchmarkServerSubmit(b *testing.B) {
	l := newServerLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle()
	}
}

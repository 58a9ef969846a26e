package cache

import (
	"testing"

	"sais/internal/rng"
	"sais/internal/units"
)

// TestSystemMatchesMapOracle drives the slab-backed System and the
// map-based oracle (mapsystem_oracle_test.go) with the same seeded
// random Fill/Consume/Release traffic — small caches so evictions are
// constant, sizes up to twice a private cache so some blocks bypass,
// and half the seeds with a socket L3 — and requires the same outcome,
// supplier, residency, occupancy and counters after every operation.
func TestSystemMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		const cores = 4
		perCore := units.Bytes(r.Intn(4)+2) * 32 * units.KiB
		sys := NewSystem(cores, perCore, 64)
		ora := newMapSystem(cores, perCore, 64)
		if seed%2 == 0 {
			socket := r.Intn(cores) + 1
			l3 := units.Bytes(r.Intn(6)+1) * 32 * units.KiB
			sys.ConfigureL3(socket, l3)
			ora.ConfigureL3(socket, l3)
		}
		// live[i] pairs a System handle with the oracle's id for it.
		type pair struct {
			b  Block
			id BlockID
		}
		var live []pair
		next := BlockID(1)
		for step := 0; step < 600; step++ {
			op := "fill"
			switch {
			case len(live) == 0 || r.Bool(0.45):
				core := r.Intn(cores)
				size := units.Bytes(r.Intn(int(2*perCore/units.KiB))+1) * units.KiB
				live = append(live, pair{sys.Fill(core, size), next})
				ora.Fill(core, next, size)
				next++
			case r.Bool(0.7):
				op = "consume"
				p := live[r.Intn(len(live))]
				core := r.Intn(cores)
				kind, supplier := sys.ConsumeFrom(core, p.b)
				wantKind, wantSupplier := ora.ConsumeFrom(core, p.id)
				if kind != wantKind || supplier != wantSupplier {
					t.Fatalf("seed %d step %d: consume = %v from %d, oracle %v from %d",
						seed, step, kind, supplier, wantKind, wantSupplier)
				}
			default:
				op = "release"
				k := r.Intn(len(live))
				sys.Release(live[k].b)
				ora.Release(live[k].id)
				live = append(live[:k], live[k+1:]...)
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			if err := ora.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d (%s): oracle: %v", seed, step, op, err)
			}
			for c := 0; c < cores; c++ {
				if sys.Used(c) != ora.Used(c) {
					t.Fatalf("seed %d step %d (%s): core %d used %v, oracle used %v",
						seed, step, op, c, sys.Used(c), ora.Used(c))
				}
			}
			if sys.Aggregate() != ora.Aggregate() {
				t.Fatalf("seed %d step %d (%s): aggregate %+v, oracle %+v", seed, step, op, sys.Aggregate(), ora.Aggregate())
			}
			for _, p := range live {
				if got, want := resident(sys, p.b), ora.Resident(p.id); got != want {
					t.Fatalf("seed %d step %d (%s): block %d resident on %d, oracle %d", seed, step, op, p.id, got, want)
				}
			}
		}
	}
}

package cache

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/units"
)

// TestBlockModelMatchesLineModel cross-validates the two cache
// substrates: for single-line blocks with no capacity pressure, the
// block-granularity System must classify every access exactly as the
// line-granularity MESI Directory does. This is the correctness anchor
// for using the fast block model in the cluster simulator.
func TestBlockModelMatchesLineModel(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		const cores = 4
		// Large caches: no evictions, so residency is purely a function
		// of the access sequence in both models.
		sys := NewSystem(cores, units.MiB, 64)
		dir := NewDirectory(cores, LineCacheConfig{Capacity: units.MiB, LineSize: 64, Ways: 16})

		// handle[id] is the block model's current buffer for line id;
		// a fresh deposit replaces (releases) the previous one.
		const blocks = 32
		handle := map[int]Block{}
		for i := 0; i < 300; i++ {
			core := r.Intn(cores)
			id := r.Intn(blocks) + 1
			addr := LineAddr(uint64(id) * 64)
			h, filled := handle[id]
			if !filled || r.Bool(0.3) {
				// Deposit (softirq fill): Modified in both models.
				if filled {
					sys.Release(h)
				}
				handle[id] = sys.Fill(core, 64)
				dir.FillModified(core, addr)
				continue
			}
			want := dir.Read(core, addr)
			got := consume(sys, core, h)
			// After a consume the block model treats the block as owned
			// by the consumer; mirror that in the line model by
			// re-filling ownership, matching Consume's move semantics.
			if got != want {
				t.Logf("seed %d step %d: block=%v line=%v", seed, i, got, want)
				return false
			}
			dir.FillModified(core, addr)
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

package cache

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/units"
)

func newSys() *System { return NewSystem(4, 512*units.KiB, 64) }

// resident reports which core holds b, or -1 if it is only in memory
// (or has been released).
func resident(s *System, b Block) int { return int(s.blocks[b].core) }

// consume reads the whole of b on core and returns where it came from.
func consume(s *System, core int, b Block) AccessKind {
	kind, _ := s.ConsumeFrom(core, b)
	return kind
}

func TestFillThenLocalConsume(t *testing.T) {
	s := newSys()
	b := s.Fill(2, 64*units.KiB)
	if got := resident(s, b); got != 2 {
		t.Fatalf("Resident = %d, want 2", got)
	}
	if k := consume(s, 2, b); k != HitLocal {
		t.Errorf("consume on filling core = %v, want local-hit", k)
	}
	st := s.Aggregate()
	wantLines := uint64(64 * 1024 / 64)
	if st.Accesses != wantLines || st.Hits != wantLines || st.Misses != 0 {
		t.Errorf("stats = %+v, want %d hits", st, wantLines)
	}
}

func TestRemoteConsumeMigrates(t *testing.T) {
	s := newSys()
	b := s.Fill(1, 64*units.KiB)
	if k := consume(s, 3, b); k != HitRemote {
		t.Errorf("cross-core consume = %v, want remote-hit", k)
	}
	if got := resident(s, b); got != 3 {
		t.Errorf("after consume block resident on %d, want 3", got)
	}
	st := s.Aggregate()
	wantLines := uint64(1024)
	if st.Accesses != wantLines || st.RemoteTransfers != wantLines || st.Misses != wantLines {
		t.Errorf("stats = %+v, want only the consumer's %d accesses", st, wantLines)
	}
}

func TestConsumeFromMemory(t *testing.T) {
	s := newSys()
	b := s.Fill(0, 64*units.KiB)
	// Evict it by filling core 0 beyond capacity.
	for i := 0; i < 10; i++ {
		s.Fill(0, 64*units.KiB)
	}
	if resident(s, b) != -1 {
		t.Fatal("the first block should have been evicted")
	}
	if k := consume(s, 0, b); k != MissMemory {
		t.Errorf("consume of evicted block = %v, want memory-miss", k)
	}
	if s.Aggregate().MemoryFills != 1024 {
		t.Errorf("memory fills = %d, want 1024", s.Aggregate().MemoryFills)
	}
}

func TestCapacityEviction(t *testing.T) {
	s := newSys() // 512 KiB per core = 8 strips of 64 KiB
	var bs []Block
	for i := 0; i < 9; i++ {
		bs = append(bs, s.Fill(0, 64*units.KiB))
	}
	if resident(s, bs[0]) != -1 {
		t.Error("LRU block 0 should be evicted by ninth fill")
	}
	if resident(s, bs[8]) != 0 {
		t.Error("newest block must be resident")
	}
	if s.Used(0) != 512*units.KiB {
		t.Errorf("used = %v, want full", s.Used(0))
	}
	if s.Aggregate().EvictedBlocks != 1 {
		t.Errorf("evictions = %d, want 1", s.Aggregate().EvictedBlocks)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOversizedBlockBypasses(t *testing.T) {
	s := newSys()
	b := s.Fill(0, units.MiB) // larger than 512 KiB cache
	if resident(s, b) != -1 {
		t.Error("oversized block should bypass the cache")
	}
	if k := consume(s, 0, b); k != MissMemory {
		t.Errorf("consume of bypassed block = %v, want memory-miss", k)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRefillMovesBlock(t *testing.T) {
	s := newSys()
	// A fresh deposit of the same strip elsewhere: the old buffer is
	// released, its record recycled for the new block.
	old := s.Fill(0, 64*units.KiB)
	s.Release(old)
	b := s.Fill(2, 64*units.KiB)
	if b != old {
		t.Errorf("refill got handle %d, want the recycled %d", b, old)
	}
	if got := resident(s, b); got != 2 {
		t.Errorf("Resident = %d, want 2", got)
	}
	if s.Used(0) != 0 {
		t.Errorf("core 0 still accounts %v", s.Used(0))
	}
}

func TestRelease(t *testing.T) {
	s := newSys()
	b := s.Fill(1, 64*units.KiB)
	s.Release(b)
	if resident(s, b) != -1 {
		t.Error("released block still resident")
	}
	if s.Used(1) != 0 {
		t.Errorf("used = %v after release", s.Used(1))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTouchRefreshesLRU(t *testing.T) {
	s := newSys()
	var bs []Block
	for i := 0; i < 8; i++ {
		bs = append(bs, s.Fill(0, 64*units.KiB))
	}
	// A local hit makes block 0 MRU; the next eviction takes block 1.
	if k := consume(s, 0, bs[0]); k != HitLocal {
		t.Fatalf("consume on the filling core = %v, want local-hit", k)
	}
	s.Fill(0, 64*units.KiB)
	if resident(s, bs[0]) != 0 {
		t.Error("touched block was evicted")
	}
	if resident(s, bs[1]) != -1 {
		t.Error("expected block 1 to be the victim")
	}
}

func TestConsumeUnknownPanics(t *testing.T) {
	s := newSys()
	released := s.Fill(0, 64*units.KiB)
	s.Release(released)
	for _, b := range []Block{12345, -1, released} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Consume of unknown block %d did not panic", b)
				}
			}()
			consume(s, 0, b)
		}()
	}
}

func TestAggregateMatchesSum(t *testing.T) {
	s := newSys()
	b1 := s.Fill(0, 64*units.KiB)
	b2 := s.Fill(1, 64*units.KiB)
	consume(s, 0, b1)
	consume(s, 0, b2)
	var sum BlockStats
	sum.Add(BlockStats{Accesses: 1024, Hits: 1024})                          // b1, local
	sum.Add(BlockStats{Accesses: 1024, Misses: 1024, RemoteTransfers: 1024}) // b2, from core 1
	if sum != s.Aggregate() {
		t.Errorf("aggregate %+v != sum of the consumes %+v", s.Aggregate(), sum)
	}
}

// Property: invariants hold and hits+misses==accesses under random use.
func TestSystemInvariantsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		s := NewSystem(3, 256*units.KiB, 64)
		live := []Block{}
		for i := 0; i < 400; i++ {
			switch {
			case len(live) == 0 || r.Bool(0.4):
				size := units.Bytes(r.Intn(4)+1) * 32 * units.KiB
				live = append(live, s.Fill(r.Intn(3), size))
			case r.Bool(0.7):
				consume(s, r.Intn(3), live[r.Intn(len(live))])
			default:
				k := r.Intn(len(live))
				s.Release(live[k])
				live = append(live[:k], live[k+1:]...)
			}
			if s.CheckInvariants() != nil {
				return false
			}
		}
		a := s.Aggregate()
		return a.Hits+a.Misses == a.Accesses &&
			a.Misses == a.RemoteTransfers+a.MemoryFills
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestBlockMissRate(t *testing.T) {
	var st BlockStats
	if st.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
	st = BlockStats{Accesses: 200, Misses: 50}
	if st.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", st.MissRate())
	}
}

func TestNewSystemValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSystem(0, units.KiB, 64) },
		func() { NewSystem(2, 0, 64) },
		func() { NewSystem(2, units.KiB, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic from invalid NewSystem")
				}
			}()
			f()
		}()
	}
}

func TestChargeAccounting(t *testing.T) {
	s := newSys()
	s.ChargeBackground(100, 0)
	s.ChargeBackground(30, 10)
	st := s.Aggregate()
	if st.Accesses != 140 {
		t.Errorf("accesses = %d, want 140", st.Accesses)
	}
	if st.Hits != 130 {
		t.Errorf("hits = %d, want 130", st.Hits)
	}
	if st.RemoteTransfers != 0 || st.MemoryFills != 10 {
		t.Errorf("remote=%d mem=%d", st.RemoteTransfers, st.MemoryFills)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Error("hit+miss != accesses after explicit charges")
	}
	if s.LineSize() != 64 {
		t.Errorf("line size = %v", s.LineSize())
	}
}

func TestConsumeFromReportsSupplier(t *testing.T) {
	s := newSys()
	b := s.Fill(2, 64*units.KiB)
	kind, supplier := s.ConsumeFrom(0, b)
	if kind != HitRemote || supplier != 2 {
		t.Errorf("ConsumeFrom = %v, %d; want remote from core 2", kind, supplier)
	}
	// Local and memory outcomes report no supplier.
	kind, supplier = s.ConsumeFrom(0, b)
	if kind != HitLocal || supplier != -1 {
		t.Errorf("local = %v, %d", kind, supplier)
	}
	s.Release(b)
	big := s.Fill(1, units.MiB) // bypasses (oversized)
	kind, supplier = s.ConsumeFrom(0, big)
	if kind != MissMemory || supplier != -1 {
		t.Errorf("memory = %v, %d", kind, supplier)
	}
}

func TestL3VictimCache(t *testing.T) {
	s := newSys() // 4 cores, 512 KiB each
	s.ConfigureL3(2, units.MiB)
	// Fill 16 strips into core 0: the first 8 evict to socket 0's L3.
	bs := []Block{none} // bs[i] is the i-th fill
	for i := 1; i <= 16; i++ {
		bs = append(bs, s.Fill(0, 64*units.KiB))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Consuming an evicted block hits the socket L3, not memory.
	kind, supplier := s.ConsumeFrom(0, bs[1])
	if kind != HitL3 {
		t.Fatalf("evicted block came from %v, want l3-hit", kind)
	}
	if supplier != 0 {
		t.Errorf("supplier = %d, want socket-0 core", supplier)
	}
	st := s.Aggregate()
	if st.L3Transfers != 1024 {
		t.Errorf("L3 transfers = %d, want 1024", st.L3Transfers)
	}
	// A resident block still hits locally.
	if kind, _ := s.ConsumeFrom(0, bs[16]); kind != HitLocal {
		t.Errorf("resident block = %v", kind)
	}
	// Consuming from the other socket is still an L3 hit, with the
	// supplier identifying socket 0.
	kind, supplier = s.ConsumeFrom(3, bs[2])
	if kind != HitL3 || supplier != 0 {
		t.Errorf("cross-socket L3 = %v from %d", kind, supplier)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestL3CapacityDisplacement(t *testing.T) {
	s := NewSystem(2, 128*units.KiB, 64) // 2 strips per private cache
	s.ConfigureL3(2, 128*units.KiB)      // 2 strips of L3
	bs := []Block{none}                  // bs[i] is the i-th fill
	for i := 1; i <= 6; i++ {
		bs = append(bs, s.Fill(0, 64*units.KiB))
	}
	// Private holds {5,6}; L3 holds the last two victims {3,4}; 1 and 2
	// were displaced from the L3 to memory.
	if k, _ := s.ConsumeFrom(0, bs[1]); k != MissMemory {
		t.Errorf("block 1 = %v, want memory-miss", k)
	}
	if k, _ := s.ConsumeFrom(1, bs[4]); k != HitL3 {
		t.Errorf("block 4 = %v, want l3-hit", k)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestL3ConfigValidation(t *testing.T) {
	s := newSys()
	for _, f := range []func(){
		func() { s.ConfigureL3(0, units.MiB) },
		func() { s.ConfigureL3(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad L3 config accepted")
				}
			}()
			f()
		}()
	}
}

func BenchmarkSystemFillConsume(b *testing.B) {
	s := NewSystem(8, 512*units.KiB, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := s.Fill(i%8, 64*units.KiB)
		s.ConsumeFrom((i+1)%8, blk)
		s.Release(blk)
	}
}

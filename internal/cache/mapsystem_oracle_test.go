package cache

import (
	"fmt"

	"sais/internal/units"
)

// mapSystem is the reference block model System is checked against: the
// same rules written the direct way, with hash maps keyed by a
// caller-chosen BlockID and slice-backed LRU lists, where a drop or touch
// scans the list. blockoracle_test.go drives both with the same random
// traffic and requires identical outcomes, statistics and occupancy at
// every step.

// BlockID names a block in the oracle; the caller picks it.
type BlockID uint64

type mapSystem struct {
	lineSize units.Bytes
	cores    []oracleLRU
	where    map[BlockID]int // block -> core holding it
	sizes    map[BlockID]units.Bytes
	stats    []BlockStats
	agg      BlockStats

	// Optional shared per-socket L3 victim cache: blocks evicted from a
	// private cache by capacity pressure park here until consumed or
	// displaced. Zero capacity disables it.
	l3         []oracleLRU // one per socket
	l3Where    map[BlockID]int
	socketSize int
}

type oracleLRU struct {
	capacity units.Bytes
	used     units.Bytes
	// LRU list, most recent at the back.
	order []BlockID
}

// newMapSystem builds a block-granularity cache system with nCores private
// caches of perCore bytes each and the given line size.
func newMapSystem(nCores int, perCore, lineSize units.Bytes) *mapSystem {
	if nCores <= 0 {
		panic("cache: mapSystem needs at least one core")
	}
	if perCore <= 0 || lineSize <= 0 {
		panic("cache: non-positive capacity or line size")
	}
	s := &mapSystem{
		lineSize: lineSize,
		cores:    make([]oracleLRU, nCores),
		where:    make(map[BlockID]int),
		sizes:    make(map[BlockID]units.Bytes),
		stats:    make([]BlockStats, nCores),
	}
	for i := range s.cores {
		s.cores[i].capacity = perCore
	}
	return s
}

// ConfigureL3 attaches a shared victim L3 of perSocket bytes to every
// group of socketSize cores. Must be called before any traffic.
func (s *mapSystem) ConfigureL3(socketSize int, perSocket units.Bytes) {
	if socketSize < 1 || perSocket <= 0 {
		panic("cache: L3 needs socketSize >= 1 and positive capacity")
	}
	sockets := (len(s.cores) + socketSize - 1) / socketSize
	s.l3 = make([]oracleLRU, sockets)
	for i := range s.l3 {
		s.l3[i].capacity = perSocket
	}
	s.l3Where = make(map[BlockID]int)
	s.socketSize = socketSize
}

// socketOf maps a core to its socket index (0 when no L3 configured).
func (s *mapSystem) socketOf(core int) int {
	if s.socketSize < 1 {
		return 0
	}
	return core / s.socketSize
}

// Stats returns the counters for one core.
func (s *mapSystem) Stats(core int) BlockStats { return s.stats[core] }

// Aggregate returns counters summed over all cores.
func (s *mapSystem) Aggregate() BlockStats { return s.agg }

// lines converts a byte size to a line count, rounding up.
func (s *mapSystem) lines(size units.Bytes) uint64 {
	return uint64((size + s.lineSize - 1) / s.lineSize)
}

// Resident reports which core holds the block, or -1 if it is only in
// memory.
func (s *mapSystem) Resident(id BlockID) int {
	if c, ok := s.where[id]; ok {
		return c
	}
	return -1
}

// Used returns bytes currently resident in core's cache.
func (s *mapSystem) Used(core int) units.Bytes { return s.cores[core].used }

// Fill deposits block id of the given size into core's private cache —
// the model of DMA plus softirq protocol processing on that core. Any
// previous copy elsewhere is dropped (the deposit is a fresh write).
// Blocks larger than the cache bypass it and stay memory-resident, as
// a streaming transfer larger than L2 would.
func (s *mapSystem) Fill(core int, id BlockID, size units.Bytes) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Fill with size %d", size))
	}
	s.drop(id)
	s.l3Drop(id)
	s.sizes[id] = size
	if size > s.cores[core].capacity {
		// Bypass: resident nowhere.
		return
	}
	s.makeRoom(core, size)
	cc := &s.cores[core]
	cc.order = append(cc.order, id)
	cc.used += size
	s.where[id] = core
}

// ConsumeFrom is Consume plus the identity of the core that supplied a
// remote hit (-1 otherwise) — the information a NUMA cost model needs
// to price the migration by socket distance.
func (s *mapSystem) ConsumeFrom(core int, id BlockID) (AccessKind, int) {
	size, ok := s.sizes[id]
	if !ok {
		panic(fmt.Sprintf("cache: Consume of unknown block %d", id))
	}
	n := s.lines(size)
	st := &s.stats[core]
	st.Accesses += n
	s.agg.Accesses += n

	holder, resident := s.where[id]
	supplier := -1
	var kind AccessKind
	switch {
	case resident && holder == core:
		st.Hits += n
		s.agg.Hits += n
		kind = HitLocal
		s.touch(core, id)
		return kind, supplier
	case resident:
		supplier = holder
		// Cache-to-cache migration of every line.
		st.Misses += n
		st.RemoteTransfers += n
		s.agg.Misses += n
		s.agg.RemoteTransfers += n
		kind = HitRemote
		s.drop(id)
	default:
		if socket, inL3 := s.l3Lookup(id); inL3 {
			st.Misses += n
			st.L3Transfers += n
			s.agg.Misses += n
			s.agg.L3Transfers += n
			kind = HitL3
			// The supplier is reported as the first core of the L3's
			// socket, so callers can price the hop by socket distance.
			supplier = socket * s.socketSize
			s.l3Drop(id)
			break
		}
		st.Misses += n
		st.MemoryFills += n
		s.agg.Misses += n
		s.agg.MemoryFills += n
		kind = MissMemory
	}
	// Install into the consumer's cache.
	if size <= s.cores[core].capacity {
		s.makeRoom(core, size)
		cc := &s.cores[core]
		cc.order = append(cc.order, id)
		cc.used += size
		s.where[id] = core
	}
	return kind, supplier
}

// Release forgets a block entirely — the strip buffer has been freed
// after the application merged it into its destination buffer.
func (s *mapSystem) Release(id BlockID) {
	s.drop(id)
	s.l3Drop(id)
	delete(s.sizes, id)
}

// l3Lookup reports which socket's L3 holds id.
func (s *mapSystem) l3Lookup(id BlockID) (int, bool) {
	if s.l3 == nil {
		return 0, false
	}
	socket, ok := s.l3Where[id]
	return socket, ok
}

// drop removes id from whatever cache holds it (no stat changes).
func (s *mapSystem) drop(id BlockID) {
	core, ok := s.where[id]
	if !ok {
		return
	}
	cc := &s.cores[core]
	for i, b := range cc.order {
		if b == id {
			cc.order = append(cc.order[:i], cc.order[i+1:]...)
			break
		}
	}
	cc.used -= s.sizes[id]
	delete(s.where, id)
}

// touch moves id to the MRU position of core's list.
func (s *mapSystem) touch(core int, id BlockID) {
	cc := &s.cores[core]
	for i, b := range cc.order {
		if b == id {
			cc.order = append(cc.order[:i], cc.order[i+1:]...)
			cc.order = append(cc.order, id)
			return
		}
	}
}

// makeRoom evicts LRU blocks from core until size fits; with an L3
// configured, victims park in the core's socket L3.
func (s *mapSystem) makeRoom(core int, size units.Bytes) {
	cc := &s.cores[core]
	for cc.used+size > cc.capacity && len(cc.order) > 0 {
		victim := cc.order[0]
		cc.order = cc.order[1:]
		cc.used -= s.sizes[victim]
		delete(s.where, victim)
		s.stats[core].EvictedBlocks++
		s.agg.EvictedBlocks++
		if s.l3 != nil {
			s.l3Insert(s.socketOf(core), victim)
		}
	}
}

// l3Insert parks a victim block in socket's L3, displacing LRU blocks.
func (s *mapSystem) l3Insert(socket int, id BlockID) {
	size := s.sizes[id]
	l := &s.l3[socket]
	if size > l.capacity {
		return
	}
	s.l3Drop(id)
	for l.used+size > l.capacity && len(l.order) > 0 {
		old := l.order[0]
		l.order = l.order[1:]
		l.used -= s.sizes[old]
		delete(s.l3Where, old)
	}
	l.order = append(l.order, id)
	l.used += size
	s.l3Where[id] = socket
}

// l3Drop removes id from whatever L3 holds it.
func (s *mapSystem) l3Drop(id BlockID) {
	if s.l3 == nil {
		return
	}
	socket, ok := s.l3Where[id]
	if !ok {
		return
	}
	l := &s.l3[socket]
	for i, b := range l.order {
		if b == id {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.used -= s.sizes[id]
	delete(s.l3Where, id)
}

// CheckInvariants validates internal consistency: occupancy sums match,
// every resident block is in exactly one LRU list, and no cache exceeds
// its capacity. Intended for tests.
func (s *mapSystem) CheckInvariants() error {
	seen := make(map[BlockID]int)
	for ci := range s.cores {
		cc := &s.cores[ci]
		var sum units.Bytes
		for _, id := range cc.order {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("cache: block %d in caches %d and %d", id, prev, ci)
			}
			seen[id] = ci
			if s.where[id] != ci {
				return fmt.Errorf("cache: block %d listed on core %d but directory says %d", id, ci, s.where[id])
			}
			sum += s.sizes[id]
		}
		if sum != cc.used {
			return fmt.Errorf("cache: core %d used=%v but list sums to %v", ci, cc.used, sum)
		}
		if cc.used > cc.capacity {
			return fmt.Errorf("cache: core %d over capacity: %v > %v", ci, cc.used, cc.capacity)
		}
	}
	//lint:maporder order-independent invariant sweep: every entry must hold, any violation fails
	for id, c := range s.where {
		if seen[id] != c {
			return fmt.Errorf("cache: directory block %d on core %d missing from list", id, c)
		}
	}
	for si := range s.l3 {
		l := &s.l3[si]
		var sum units.Bytes
		for _, id := range l.order {
			if s.l3Where[id] != si {
				return fmt.Errorf("cache: L3 block %d listed on socket %d but map says %d", id, si, s.l3Where[id])
			}
			if _, private := s.where[id]; private {
				return fmt.Errorf("cache: block %d in both a private cache and L3", id)
			}
			sum += s.sizes[id]
		}
		if sum != l.used {
			return fmt.Errorf("cache: L3 socket %d used=%v but list sums to %v", si, l.used, sum)
		}
		if l.used > l.capacity {
			return fmt.Errorf("cache: L3 socket %d over capacity", si)
		}
	}
	return nil
}

// Package cache models the client's private per-core caches — the
// hardware substrate whose behaviour the paper's whole argument rests
// on: a strip handled by the wrong core lands in the wrong private
// cache and must later migrate to the consumer (cost M), whereas
// source-aware delivery keeps the strip local (cost of a hit).
//
// The model (System) works at block granularity: it tracks whole
// strips as resident in at most one private cache, with per-core
// capacity and LRU eviction. The paper's experiments move tens of
// gigabytes, so per-line simulation would be needlessly slow;
// miss/access counts are derived from line arithmetic so reported
// rates are equivalent. A line-granularity set-associative LRU cache
// with a MESI-style ownership directory lives in the package's tests
// as the oracle the block model is checked against.
package cache

import (
	"fmt"

	"sais/internal/units"
)

// AccessKind classifies where a requested line was found.
type AccessKind uint8

// Access outcomes.
const (
	// HitLocal: the line was in the requesting core's own cache.
	HitLocal AccessKind = iota
	// HitRemote: another core's cache supplied the line
	// (cache-to-cache migration — the expensive case, cost M).
	HitRemote
	// MissMemory: no cache held the line; filled from memory.
	MissMemory
	// HitL3: supplied by a shared last-level (victim) cache — cheaper
	// than DRAM, dearer than a local hit. Only produced by a System
	// configured with an L3.
	HitL3
)

func (k AccessKind) String() string {
	switch k {
	case HitLocal:
		return "local-hit"
	case HitRemote:
		return "remote-hit"
	case MissMemory:
		return "memory-miss"
	case HitL3:
		return "l3-hit"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Block is the handle Fill returns for one deposited block — a data
// strip in flight. ConsumeFrom, Resident and Release take it. A handle
// is valid until its Release, after which Fill may hand the same value
// out again for a new block.
type Block int32

// none marks an absent core, socket or list link in a block record.
const none = -1

// block is one record of System's slab. A resident block sits in the
// LRU list of exactly one cache — a core's private cache or a socket's
// L3 — and prev/next link it there; a released record chains the free
// list through next.
type block struct {
	size       units.Bytes // 0 while the record is free
	core       int32       // private cache holding the block, or none
	socket     int32       // L3 holding the block, or none
	prev, next Block
}

// System is the block-granularity cache model used by the cluster
// simulator. Each core has a private cache of fixed byte capacity
// holding whole blocks (strips) under LRU. A block is resident in at
// most one private cache: strips are deposited by softirq processing in
// Modified state and consumed by exactly one application process, so
// the single-owner invariant matches the workload (and keeps the model
// O(1) per strip rather than O(lines)).
//
// Blocks live in a slab of records indexed by their handle and recycled
// through a free list, and each cache's LRU order is a doubly linked
// list through the records, so dropping, touching or evicting a block
// touches a fixed number of records, and nothing allocates once the
// slab has grown to the peak number of blocks in flight.
//
// Line-level counters (accesses, hits, misses) are derived
// arithmetically from block sizes and the configured line size, so the
// reported L2 miss rates are directly comparable with the paper's
// Oprofile numbers.
type System struct {
	lineSize units.Bytes
	cores    []lru
	blocks   []block
	free     Block // first free record, or none
	agg      BlockStats

	// Optional shared per-socket L3 victim cache: blocks evicted from a
	// private cache by capacity pressure park here until consumed or
	// displaced. Zero capacity disables it.
	l3         []lru // one per socket
	socketSize int
}

// lru is one cache's occupancy and LRU list: head is the least
// recently used block, tail the most recent.
type lru struct {
	capacity   units.Bytes
	used       units.Bytes
	head, tail Block
}

// BlockStats counts line-level cache events.
type BlockStats struct {
	Accesses        uint64 // line accesses by consuming processes
	Hits            uint64 // lines found in the local private cache
	Misses          uint64 // lines not local (remote, L3, or memory)
	RemoteTransfers uint64 // lines migrated cache-to-cache (cost M path)
	L3Transfers     uint64 // lines supplied by the shared victim L3
	MemoryFills     uint64 // lines filled from DRAM
	EvictedBlocks   uint64 // whole blocks evicted by capacity pressure
}

// MissRate returns Misses/Accesses, the figure-6/7 metric.
func (s BlockStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Add sums o into s.
func (s *BlockStats) Add(o BlockStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.RemoteTransfers += o.RemoteTransfers
	s.L3Transfers += o.L3Transfers
	s.MemoryFills += o.MemoryFills
	s.EvictedBlocks += o.EvictedBlocks
}

// NewSystem builds a block-granularity cache system with nCores private
// caches of perCore bytes each and the given line size.
func NewSystem(nCores int, perCore, lineSize units.Bytes) *System {
	if nCores <= 0 {
		panic("cache: System needs at least one core")
	}
	if perCore <= 0 || lineSize <= 0 {
		panic("cache: non-positive capacity or line size")
	}
	s := &System{
		lineSize: lineSize,
		cores:    make([]lru, nCores),
		free:     none,
	}
	for i := range s.cores {
		s.cores[i] = lru{capacity: perCore, head: none, tail: none}
	}
	return s
}

// ConfigureL3 attaches a shared victim L3 of perSocket bytes to every
// group of socketSize cores. Must be called before any traffic.
func (s *System) ConfigureL3(socketSize int, perSocket units.Bytes) {
	if socketSize < 1 || perSocket <= 0 {
		panic("cache: L3 needs socketSize >= 1 and positive capacity")
	}
	sockets := (len(s.cores) + socketSize - 1) / socketSize
	s.l3 = make([]lru, sockets)
	for i := range s.l3 {
		s.l3[i] = lru{capacity: perSocket, head: none, tail: none}
	}
	s.socketSize = socketSize
}

// socketOf maps a core to its socket index (0 when no L3 configured).
func (s *System) socketOf(core int) int {
	if s.socketSize < 1 {
		return 0
	}
	return core / s.socketSize
}

// LineSize returns the configured line size.
func (s *System) LineSize() units.Bytes { return s.lineSize }

// Aggregate returns the counters summed over all cores.
func (s *System) Aggregate() BlockStats { return s.agg }

// lines converts a byte size to a line count, rounding up.
func (s *System) lines(size units.Bytes) uint64 {
	return uint64((size + s.lineSize - 1) / s.lineSize)
}

// Used returns bytes currently resident in core's cache.
func (s *System) Used(core int) units.Bytes { return s.cores[core].used }

// Fill deposits a new block of the given size into core's private
// cache — the model of DMA plus softirq protocol processing on that
// core — and returns its handle. Blocks larger than the cache bypass it
// and stay memory-resident, as a streaming transfer larger than L2
// would.
//
//saisvet:allocfree
func (s *System) Fill(core int, size units.Bytes) Block {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Fill with size %d", size))
	}
	b := s.free
	if b == none {
		b = Block(len(s.blocks))
		s.blocks = append(s.blocks, block{})
	} else {
		s.free = s.blocks[b].next
	}
	s.blocks[b] = block{size: size, core: none, socket: none, prev: none, next: none}
	if size <= s.cores[core].capacity {
		s.install(core, b)
	}
	return b
}

// ConsumeFrom models the application process on core reading the
// whole block. The outcome classifies the dominant source, and the
// supplier is the core that supplied a remote hit (-1 otherwise) — the
// information a NUMA cost model needs to price the migration by socket
// distance. Afterwards the block is resident in the consuming core's
// cache (it was just read).
//
//saisvet:allocfree
func (s *System) ConsumeFrom(core int, b Block) (AccessKind, int) {
	r := s.live(b)
	n := s.lines(r.size)
	s.agg.Accesses += n

	supplier := -1
	var kind AccessKind
	switch {
	case int(r.core) == core:
		s.agg.Hits += n
		s.unlink(&s.cores[core], b)
		s.push(&s.cores[core], b)
		return HitLocal, supplier
	case r.core != none:
		supplier = int(r.core)
		// Cache-to-cache migration of every line.
		s.agg.Misses += n
		s.agg.RemoteTransfers += n
		kind = HitRemote
		s.unlink(&s.cores[r.core], b)
		r.core = none
	case r.socket != none:
		s.agg.Misses += n
		s.agg.L3Transfers += n
		kind = HitL3
		// The supplier is reported as the first core of the L3's
		// socket, so callers can price the hop by socket distance.
		supplier = int(r.socket) * s.socketSize
		s.unlink(&s.l3[r.socket], b)
		r.socket = none
	default:
		s.agg.Misses += n
		s.agg.MemoryFills += n
		kind = MissMemory
	}
	// Install into the consumer's cache.
	if r.size <= s.cores[core].capacity {
		s.install(core, b)
	}
	return kind, supplier
}

// ChargeBackground adds compute-phase line accesses: hits model the
// application touching already-resident working-set data (its own
// buffers, stack, code), which dilute the strip-consumption misses
// exactly as they do in hardware counters; misses are charged as memory
// fills (scheduling-independent background misses — cold code,
// metadata, TLB walks).
func (s *System) ChargeBackground(hits, misses uint64) {
	s.agg.Accesses += hits
	s.agg.Hits += hits
	s.agg.Accesses += misses
	s.agg.Misses += misses
	s.agg.MemoryFills += misses
}

// Release forgets a block entirely — the strip buffer has been freed
// after the application merged it into its destination buffer. The
// handle must not be used again.
//
//saisvet:allocfree
func (s *System) Release(b Block) {
	r := s.live(b)
	if r.core != none {
		s.unlink(&s.cores[r.core], b)
	} else if r.socket != none {
		s.unlink(&s.l3[r.socket], b)
	}
	*r = block{core: none, socket: none, prev: none, next: s.free}
	s.free = b
}

// live returns b's record, panicking on a handle that names no live
// block.
func (s *System) live(b Block) *block {
	if b < 0 || int(b) >= len(s.blocks) || s.blocks[b].size == 0 {
		panic(fmt.Sprintf("cache: unknown block %d", b))
	}
	return &s.blocks[b]
}

// install makes room in core's private cache and puts b at its MRU
// end; the caller has checked that b fits the cache at all.
func (s *System) install(core int, b Block) {
	s.makeRoom(core, s.blocks[b].size)
	s.push(&s.cores[core], b)
	s.blocks[b].core = int32(core)
}

// makeRoom evicts LRU blocks from core until size fits; with an L3
// configured, victims park in the core's socket L3.
func (s *System) makeRoom(core int, size units.Bytes) {
	cc := &s.cores[core]
	for cc.used+size > cc.capacity && cc.head != none {
		victim := cc.head
		s.unlink(cc, victim)
		s.blocks[victim].core = none
		s.agg.EvictedBlocks++
		if s.l3 != nil {
			s.l3Insert(s.socketOf(core), victim)
		}
	}
}

// l3Insert parks a victim block in socket's L3, displacing LRU blocks.
func (s *System) l3Insert(socket int, b Block) {
	size := s.blocks[b].size
	l := &s.l3[socket]
	if size > l.capacity {
		return
	}
	for l.used+size > l.capacity && l.head != none {
		old := l.head
		s.unlink(l, old)
		s.blocks[old].socket = none
	}
	s.push(l, b)
	s.blocks[b].socket = int32(socket)
}

// push appends b at l's MRU end and charges its size.
func (s *System) push(l *lru, b Block) {
	r := &s.blocks[b]
	r.prev, r.next = l.tail, none
	if l.tail != none {
		s.blocks[l.tail].next = b
	} else {
		l.head = b
	}
	l.tail = b
	l.used += r.size
}

// unlink removes b from l and refunds its size; the caller clears the
// record's core or socket.
func (s *System) unlink(l *lru, b Block) {
	r := &s.blocks[b]
	if r.prev != none {
		s.blocks[r.prev].next = r.next
	} else {
		l.head = r.next
	}
	if r.next != none {
		s.blocks[r.next].prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.prev, r.next = none, none
	l.used -= r.size
}

// CheckInvariants validates internal consistency: every list's links
// agree in both directions, occupancy sums match, each live block sits
// in the list its record names (and in at most one), no cache exceeds
// its capacity, and every other record is on the free list. Intended
// for tests.
func (s *System) CheckInvariants() error {
	listed := 0
	for ci := range s.cores {
		n, err := s.checkList(&s.cores[ci], func(r *block) bool { return int(r.core) == ci && r.socket == none })
		if err != nil {
			return fmt.Errorf("cache: core %d: %w", ci, err)
		}
		listed += n
	}
	for si := range s.l3 {
		n, err := s.checkList(&s.l3[si], func(r *block) bool { return int(r.socket) == si && r.core == none })
		if err != nil {
			return fmt.Errorf("cache: L3 socket %d: %w", si, err)
		}
		listed += n
	}
	resident, freed := 0, 0
	for i := range s.blocks {
		r := &s.blocks[i]
		if r.size > 0 && (r.core != none || r.socket != none) {
			resident++
		}
	}
	for b := s.free; b != none; b = s.blocks[b].next {
		if s.blocks[b].size != 0 {
			return fmt.Errorf("cache: live block %d on the free list", b)
		}
		if freed++; freed > len(s.blocks) {
			return fmt.Errorf("cache: free list has a cycle")
		}
	}
	if listed != resident {
		return fmt.Errorf("cache: %d blocks name a cache but the lists hold %d", resident, listed)
	}
	live := 0
	for i := range s.blocks {
		if s.blocks[i].size > 0 {
			live++
		}
	}
	if live+freed != len(s.blocks) {
		return fmt.Errorf("cache: %d live and %d free records in a slab of %d", live, freed, len(s.blocks))
	}
	return nil
}

// checkList walks one LRU list, checking links, ownership, the size sum
// and capacity; it returns the number of blocks listed.
func (s *System) checkList(l *lru, owns func(*block) bool) (int, error) {
	var sum units.Bytes
	n := 0
	prev := Block(none)
	for b := l.head; b != none; b = s.blocks[b].next {
		r := &s.blocks[b]
		if r.size == 0 || !owns(r) {
			return 0, fmt.Errorf("block %d listed but its record says core %d, socket %d", b, r.core, r.socket)
		}
		if r.prev != prev {
			return 0, fmt.Errorf("block %d prev link %d, want %d", b, r.prev, prev)
		}
		if n++; n > len(s.blocks) {
			return 0, fmt.Errorf("list has a cycle")
		}
		sum += r.size
		prev = b
	}
	if l.tail != prev {
		return 0, fmt.Errorf("tail %d, want %d", l.tail, prev)
	}
	if sum != l.used {
		return 0, fmt.Errorf("used=%v but list sums to %v", l.used, sum)
	}
	if l.used > l.capacity {
		return 0, fmt.Errorf("over capacity: %v > %v", l.used, l.capacity)
	}
	return n, nil
}

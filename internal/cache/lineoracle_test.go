package cache

import (
	"fmt"

	"sais/internal/units"
)

// LineCache is the line-granularity cache oracle: a set-associative LRU
// cache per core, with the MESI-lite Directory (directoryoracle_test.go)
// over a set of them. The cluster simulator uses the block model
// (System); the tests check it against these (crossmodel_test.go).

// LineAddr identifies a cache line by its aligned byte address.
type LineAddr uint64

// LineState is the coherence state of a line in one cache, a simplified
// MESI (no Exclusive; Modified and Shared are what the model needs).
type LineState uint8

// Coherence states.
const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// LineCacheConfig sizes a private cache.
type LineCacheConfig struct {
	Capacity units.Bytes // total data capacity
	LineSize units.Bytes // bytes per line (power of two)
	Ways     int         // associativity
}

// DefaultL2 is the Opteron 2384's per-core L2: 512 KiB, 64 B lines,
// 16-way.
func DefaultL2() LineCacheConfig {
	return LineCacheConfig{Capacity: 512 * units.KiB, LineSize: 64, Ways: 16}
}

func (c LineCacheConfig) validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: associativity %d must be positive", c.Ways)
	}
	lines := c.Capacity / c.LineSize
	if lines <= 0 {
		return fmt.Errorf("cache: capacity %v below one line", c.Capacity)
	}
	if int(lines)%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c LineCacheConfig) Sets() int { return int(c.Capacity/c.LineSize) / c.Ways }

// way is one slot of a set.
type way struct {
	addr  LineAddr
	state LineState
	lru   uint64 // last-touch stamp; higher = more recent
}

// LineStats counts the events the paper's figures are built from.
type LineStats struct {
	Accesses  uint64 // total lookups
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64
}

// MissRate returns Misses/Accesses, the paper's L2 miss-rate metric.
func (s LineStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// LineCache is one core's private set-associative LRU cache.
type LineCache struct {
	cfg   LineCacheConfig
	sets  [][]way
	stamp uint64
	stats LineStats
	owner int // core id, for diagnostics
}

// NewLineCache builds a cache for core owner. It panics on an invalid
// configuration: cache geometry is fixed at construction and an invalid
// geometry is a programming error, not a runtime condition.
func NewLineCache(owner int, cfg LineCacheConfig) *LineCache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	sets := make([][]way, cfg.Sets())
	for i := range sets {
		sets[i] = make([]way, cfg.Ways)
	}
	return &LineCache{cfg: cfg, sets: sets, owner: owner}
}

// Config returns the geometry.
func (c *LineCache) Config() LineCacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *LineCache) Stats() LineStats { return c.stats }

// Align maps a byte address to its line address.
func (c *LineCache) Align(addr uint64) LineAddr {
	return LineAddr(addr &^ uint64(c.cfg.LineSize-1))
}

func (c *LineCache) setFor(addr LineAddr) []way {
	idx := (uint64(addr) / uint64(c.cfg.LineSize)) % uint64(len(c.sets))
	return c.sets[idx]
}

// Lookup probes for addr without changing contents; a hit refreshes LRU
// and is counted. It returns the line's state (Invalid on miss).
func (c *LineCache) Lookup(addr LineAddr) LineState {
	c.stats.Accesses++
	set := c.setFor(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			c.stamp++
			set[i].lru = c.stamp
			c.stats.Hits++
			return set[i].state
		}
	}
	c.stats.Misses++
	return Invalid
}

// Contains probes without touching any counter or LRU state.
func (c *LineCache) Contains(addr LineAddr) bool {
	set := c.setFor(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			return true
		}
	}
	return false
}

// Insert fills addr in the given state, evicting the set's LRU victim
// if needed. It returns the evicted line address and whether an
// eviction of a valid line occurred.
func (c *LineCache) Insert(addr LineAddr, st LineState) (victim LineAddr, evicted bool) {
	if st == Invalid {
		panic("cache: inserting an Invalid line")
	}
	set := c.setFor(addr)
	c.stamp++
	// Upgrade in place if present.
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			set[i].state = st
			set[i].lru = c.stamp
			return 0, false
		}
	}
	// Free slot?
	slot := -1
	for i := range set {
		if set[i].state == Invalid {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[slot].lru {
				slot = i
			}
		}
		victim, evicted = set[slot].addr, true
		c.stats.Evictions++
	}
	set[slot] = way{addr: addr, state: st, lru: c.stamp}
	c.stats.Fills++
	return victim, evicted
}

// Invalidate drops addr if present, reporting whether it was resident.
func (c *LineCache) Invalidate(addr LineAddr) bool {
	set := c.setFor(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			set[i].state = Invalid
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid lines.
func (c *LineCache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.state != Invalid {
				n++
			}
		}
	}
	return n
}

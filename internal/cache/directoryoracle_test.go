package cache

import "fmt"

// Directory is a MESI-lite coherence directory over a set of per-core
// LineCaches. A read on one core that hits another core's Modified copy
// is the "data migration" the paper measures: the line is transferred
// cache-to-cache, downgrading the owner to Shared.
//
// Access outcomes are classified so the caller can assign the right
// latency to each (local hit, remote cache-to-cache transfer, memory
// fill).
type Directory struct {
	caches []*LineCache
	stats  DirectoryStats
}

// DirectoryStats aggregates coherence traffic.
type DirectoryStats struct {
	LocalHits       uint64
	RemoteTransfers uint64
	MemoryFills     uint64
	Invalidations   uint64
	WriteBacks      uint64
}

// NewDirectory builds a directory over n cores with identical geometry.
func NewDirectory(n int, cfg LineCacheConfig) *Directory {
	if n <= 0 {
		panic("cache: directory needs at least one core")
	}
	caches := make([]*LineCache, n)
	for i := range caches {
		caches[i] = NewLineCache(i, cfg)
	}
	return &Directory{caches: caches}
}

// Cores returns the number of private caches.
func (d *Directory) Cores() int { return len(d.caches) }

// Cache returns core's private cache for inspection.
func (d *Directory) Cache(core int) *LineCache { return d.caches[core] }

// Stats returns a copy of the coherence counters.
func (d *Directory) Stats() DirectoryStats { return d.stats }

// Read performs a coherent read of addr by core. It returns where the
// data came from.
func (d *Directory) Read(core int, addr LineAddr) AccessKind {
	own := d.caches[core]
	if own.Lookup(addr) != Invalid {
		d.stats.LocalHits++
		return HitLocal
	}
	// Local miss already counted by Lookup. Search peers.
	for i, c := range d.caches {
		if i == core {
			continue
		}
		if c.Contains(addr) {
			// Cache-to-cache transfer; both copies end Shared.
			set := c.setFor(addr)
			for j := range set {
				if set[j].state != Invalid && set[j].addr == addr {
					if set[j].state == Modified {
						d.stats.WriteBacks++
					}
					set[j].state = Shared
					break
				}
			}
			d.insertEvict(core, addr, Shared)
			d.stats.RemoteTransfers++
			return HitRemote
		}
	}
	d.insertEvict(core, addr, Shared)
	d.stats.MemoryFills++
	return MissMemory
}

// Write performs a coherent write of addr by core, invalidating every
// other copy (the MESI upgrade). It returns where the data came from.
func (d *Directory) Write(core int, addr LineAddr) AccessKind {
	own := d.caches[core]
	kind := MissMemory
	hit := own.Lookup(addr) != Invalid
	if hit {
		kind = HitLocal
		d.stats.LocalHits++
	}
	remote := false
	for i, c := range d.caches {
		if i == core {
			continue
		}
		if c.Invalidate(addr) {
			d.stats.Invalidations++
			remote = true
		}
	}
	if !hit {
		if remote {
			kind = HitRemote
			d.stats.RemoteTransfers++
		} else {
			d.stats.MemoryFills++
		}
	}
	d.insertEvict(core, addr, Modified)
	return kind
}

// FillModified installs addr into core's cache in Modified state
// without a lookup — the model of DMA + softirq protocol processing
// depositing fresh strip data into the handling core's cache.
func (d *Directory) FillModified(core int, addr LineAddr) {
	for i, c := range d.caches {
		if i == core {
			continue
		}
		if c.Invalidate(addr) {
			d.stats.Invalidations++
		}
	}
	d.insertEvict(core, addr, Modified)
}

// insertEvict inserts and accounts a write-back if a Modified victim is
// evicted.
func (d *Directory) insertEvict(core int, addr LineAddr, st LineState) {
	c := d.caches[core]
	set := c.setFor(addr)
	// Check the prospective victim's state for write-back accounting.
	victimModified := false
	if !c.Contains(addr) {
		free := false
		lruIdx, lruStamp := -1, ^uint64(0)
		for i := range set {
			if set[i].state == Invalid {
				free = true
				break
			}
			if set[i].lru < lruStamp {
				lruStamp = set[i].lru
				lruIdx = i
			}
		}
		if !free && lruIdx >= 0 && set[lruIdx].state == Modified {
			victimModified = true
		}
	}
	if _, evicted := c.Insert(addr, st); evicted && victimModified {
		d.stats.WriteBacks++
	}
}

// Owners returns the cores currently holding addr, for invariants in
// tests.
func (d *Directory) Owners(addr LineAddr) []int {
	var owners []int
	for i, c := range d.caches {
		if c.Contains(addr) {
			owners = append(owners, i)
		}
	}
	return owners
}

// CheckCoherence verifies the single-writer/multi-reader invariant for
// addr: at most one Modified copy, and a Modified copy excludes all
// others. It returns an error describing any violation.
func (d *Directory) CheckCoherence(addr LineAddr) error {
	modified, shared := 0, 0
	for _, c := range d.caches {
		set := c.setFor(addr)
		for j := range set {
			if set[j].state != Invalid && set[j].addr == addr {
				switch set[j].state {
				case Modified:
					modified++
				case Shared:
					shared++
				}
			}
		}
	}
	if modified > 1 {
		return fmt.Errorf("cache: %d Modified copies of line %#x", modified, uint64(addr))
	}
	if modified == 1 && shared > 0 {
		return fmt.Errorf("cache: line %#x Modified alongside %d Shared copies", uint64(addr), shared)
	}
	return nil
}

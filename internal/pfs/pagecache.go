package pfs

import (
	"fmt"

	"sais/internal/sim"
	"sais/internal/units"
)

// PageCache models the I/O server's buffer cache with readahead: a miss
// on any byte of a window reads the whole window from disk once, and
// subsequent requests for the window — later strips of the same stream,
// or the same data re-read by another client — are served from memory.
// This is what lets a PVFS server sustain NIC-rate delivery for
// sequential and shared workloads, and it is the mechanism behind the
// paper's multi-client experiment (Figure 12), where eight servers
// serve far more than eight disks could.
type PageCache struct {
	eng      *sim.Engine
	capacity units.Bytes
	window   units.Bytes
	used     units.Bytes

	entries map[pageKey]*pageEntry
	// lru is maintained with an intrusive doubly-linked list.
	head, tail *pageEntry
	// inflight tracks windows being read from disk; arrivals during the
	// read queue as waiters rather than issuing duplicate disk I/O.
	// Finished fills (with their waiter slices) and evicted entries are
	// recycled, so a warm cache allocates nothing per lookup.
	inflight    map[pageKey]*fill
	freeFills   []*fill
	freeEntries []*pageEntry

	hits, misses, merged uint64
}

type pageKey struct {
	file FileID
	win  int64
}

type pageEntry struct {
	key        pageKey
	prev, next *pageEntry
}

// fill is one window read in flight: the waiters to fire when its bytes
// land, and its completion event, bound when the fill is first
// allocated.
type fill struct {
	c       *PageCache
	key     pageKey
	waiters []sim.Event
	doneFn  sim.Event
}

// done installs the window and fires its waiters in arrival order; the
// fill returns to the pool only afterwards, so a waiter that misses on
// the same window again starts a fresh fill.
//
//saisvet:allocfree
func (f *fill) done(now units.Time) {
	c := f.c
	//lint:alloc cache growth: an entry per newly resident window until the first eviction recycles them
	c.install(f.key)
	delete(c.inflight, f.key)
	for _, w := range f.waiters {
		//lint:alloc waiter invocation: the callback's allocations belong to its owner's budget
		w(now)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	c.freeFills = append(c.freeFills, f)
}

// NewPageCache builds a cache of capacity bytes with the given
// readahead window. A zero or negative capacity disables caching
// (every Get is a miss and nothing is stored).
func NewPageCache(eng *sim.Engine, capacity, window units.Bytes) *PageCache {
	if window <= 0 {
		panic(fmt.Sprintf("pfs: page cache window %d must be positive", window))
	}
	return &PageCache{
		eng:      eng,
		capacity: capacity,
		window:   window,
		entries:  make(map[pageKey]*pageEntry),
		inflight: make(map[pageKey]*fill),
	}
}

// Window returns the readahead window size.
func (c *PageCache) Window() units.Bytes { return c.window }

// Hits returns window lookups served from memory.
func (c *PageCache) Hits() uint64 { return c.hits }

// Misses returns window lookups that required disk I/O.
func (c *PageCache) Misses() uint64 { return c.misses }

// Merged returns window lookups that piggybacked on in-flight I/O.
func (c *PageCache) Merged() uint64 { return c.merged }

// Windows returns the window indices covering [offset, offset+size).
func (c *PageCache) Windows(offset, size units.Bytes) (first, last int64) {
	first = int64(offset / c.window)
	last = int64((offset + size - 1) / c.window)
	return first, last
}

// WindowExtent returns the byte range of window win.
func (c *PageCache) WindowExtent(win int64) (offset, size units.Bytes) {
	return units.Bytes(win) * c.window, c.window
}

// Get requests window win of file. ready fires as soon as the window is
// resident (immediately on a hit). fetch is invoked on a true miss and
// must perform the disk read, calling the provided completion when the
// bytes are in memory; the cache fires every queued waiter then.
//
//saisvet:allocfree
func (c *PageCache) Get(file FileID, win int64, ready sim.Event, fetch func(done sim.Event)) {
	key := pageKey{file: file, win: win}
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.touch(e)
		c.eng.Immediately(ready)
		return
	}
	if f, ok := c.inflight[key]; ok {
		c.merged++
		f.waiters = append(f.waiters, ready)
		return
	}
	c.misses++
	var f *fill
	if n := len(c.freeFills); n > 0 {
		f = c.freeFills[n-1]
		c.freeFills = c.freeFills[:n-1]
	} else {
		//lint:alloc pool growth: one fill per peak number of windows in flight
		f = &fill{c: c}
		f.doneFn = f.done
	}
	f.key = key
	f.waiters = append(f.waiters, ready)
	c.inflight[key] = f
	//lint:alloc miss path: the caller's disk read, once per window fetched
	fetch(f.doneFn)
}

// Put marks window win of file resident without disk I/O — the
// write path populating the cache, so a later read of freshly written
// data is served from memory.
func (c *PageCache) Put(file FileID, win int64) {
	key := pageKey{file: file, win: win}
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		return
	}
	c.install(key)
}

// install inserts the window, evicting LRU windows to fit.
func (c *PageCache) install(key pageKey) {
	if c.capacity <= 0 {
		return
	}
	if _, ok := c.entries[key]; ok {
		return
	}
	for c.used+c.window > c.capacity && c.tail != nil {
		c.evict(c.tail)
	}
	if c.used+c.window > c.capacity {
		return // window larger than the whole cache
	}
	var e *pageEntry
	if n := len(c.freeEntries); n > 0 {
		e = c.freeEntries[n-1]
		c.freeEntries = c.freeEntries[:n-1]
		e.key = key
	} else {
		e = &pageEntry{key: key}
	}
	c.entries[key] = e
	c.used += c.window
	c.pushFront(e)
}

func (c *PageCache) evict(e *pageEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.used -= c.window
	c.freeEntries = append(c.freeEntries, e)
}

func (c *PageCache) touch(e *pageEntry) {
	c.unlink(e)
	c.pushFront(e)
}

func (c *PageCache) pushFront(e *pageEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *PageCache) unlink(e *pageEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Used returns resident bytes.
func (c *PageCache) Used() units.Bytes { return c.used }

// Len returns resident windows.
func (c *PageCache) Len() int { return len(c.entries) }

// CheckInvariants validates list/map consistency for tests.
func (c *PageCache) CheckInvariants() error {
	n := 0
	for e := c.head; e != nil; e = e.next {
		if got, ok := c.entries[e.key]; !ok || got != e {
			return fmt.Errorf("pfs: list entry %v not in map", e.key)
		}
		if e.next == nil && c.tail != e {
			return fmt.Errorf("pfs: tail mismatch")
		}
		n++
	}
	if n != len(c.entries) {
		return fmt.Errorf("pfs: list has %d entries, map %d", n, len(c.entries))
	}
	if c.used != units.Bytes(n)*c.window {
		return fmt.Errorf("pfs: used %v != %d windows", c.used, n)
	}
	if c.capacity > 0 && c.used > c.capacity {
		return fmt.Errorf("pfs: over capacity")
	}
	return nil
}

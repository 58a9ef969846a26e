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

	// windows is the one table of known windows, keyed by packKey. A
	// window in it is resident (on the LRU list), filling (its fill
	// collects the waiters of a disk read in flight), or both when a
	// Put lands during a fill. A Get costs one lookup, and a finished
	// fill turns its window resident in place.
	windows map[uint64]*pageEntry
	// lru is maintained with an intrusive doubly-linked list.
	head, tail *pageEntry
	// Finished fills (with their waiter slices) and forgotten windows
	// are recycled, so a warm cache allocates nothing per lookup.
	freeFills   []*fill
	freeEntries []*pageEntry
}

// Window keys pack the file into the high bits and the window index
// into the low winBits; packKey refuses what does not fit.
const winBits = 40

// packKey returns the table key of window win of file. It panics on a
// file id or window index outside the packed ranges (2^24 files, 2^40
// windows of at least 64 KiB each) rather than truncating it.
func packKey(file FileID, win int64) uint64 {
	if file >= 1<<(64-winBits) || win < 0 || win >= 1<<winBits {
		panic(fmt.Sprintf("pfs: page-cache window (file %d, window %d) outside the key range", file, win))
	}
	return uint64(file)<<winBits | uint64(win)
}

type pageEntry struct {
	key        uint64
	resident   bool
	fill       *fill // the disk read in flight, or nil
	prev, next *pageEntry
}

// fill is one window read in flight: the waiters to fire when its bytes
// land, and its completion event, bound when the fill is first
// allocated.
type fill struct {
	c       *PageCache
	entry   *pageEntry
	waiters []sim.Event
	doneFn  sim.Event
}

// done makes the window resident (or forgets it when the cache cannot
// hold it) and fires its waiters in arrival order; the fill returns to
// the pool only afterwards, so a waiter that misses on the same window
// again starts a fresh fill.
//
//saisvet:allocfree
func (f *fill) done(now units.Time) {
	c, e := f.c, f.entry
	e.fill = nil
	if !e.resident {
		c.admit(e)
	}
	for _, w := range f.waiters {
		//lint:alloc waiter invocation: the callback's allocations belong to its owner's budget
		w(now)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	f.entry = nil
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
		windows:  make(map[uint64]*pageEntry),
	}
}

// Window returns the readahead window size.
func (c *PageCache) Window() units.Bytes { return c.window }

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
	key := packKey(file, win)
	e := c.windows[key]
	if e != nil && e.resident {
		c.touch(e)
		c.eng.Immediately(ready)
		return
	}
	if e != nil {
		e.fill.waiters = append(e.fill.waiters, ready)
		return
	}
	var f *fill
	if n := len(c.freeFills); n > 0 {
		f = c.freeFills[n-1]
		c.freeFills = c.freeFills[:n-1]
	} else {
		//lint:alloc pool growth: one fill per peak number of windows in flight
		f = &fill{c: c}
		f.doneFn = f.done
	}
	e = c.newEntry(key)
	e.fill, f.entry = f, e
	f.waiters = append(f.waiters, ready)
	//lint:alloc miss path: the caller's disk read, once per window fetched
	fetch(f.doneFn)
}

// Put marks window win of file resident without disk I/O — the
// write path populating the cache, so a later read of freshly written
// data is served from memory. A read of the window still in flight
// keeps its waiters and finishes as usual.
func (c *PageCache) Put(file FileID, win int64) {
	key := packKey(file, win)
	e := c.windows[key]
	if e != nil && e.resident {
		c.touch(e)
		return
	}
	if e == nil {
		e = c.newEntry(key)
	}
	c.admit(e)
}

// newEntry enters a window, neither resident nor filling yet, into the
// table.
//
//saisvet:allocfree
func (c *PageCache) newEntry(key uint64) *pageEntry {
	var e *pageEntry
	if n := len(c.freeEntries); n > 0 {
		e = c.freeEntries[n-1]
		c.freeEntries = c.freeEntries[:n-1]
	} else {
		//lint:alloc pool growth: an entry per peak number of known windows, recycled once evictions start
		e = &pageEntry{}
	}
	e.key = key
	c.windows[key] = e
	return e
}

// admit makes e resident at the MRU end, evicting LRU windows to fit.
// A window that cannot fit — caching is disabled, or the window is
// larger than the cache — leaves the table unless a read of it is in
// flight.
func (c *PageCache) admit(e *pageEntry) {
	if c.capacity > 0 {
		for c.used+c.window > c.capacity && c.tail != nil {
			c.evict(c.tail)
		}
	}
	if c.capacity <= 0 || c.used+c.window > c.capacity {
		if e.fill == nil {
			c.forget(e)
		}
		return
	}
	e.resident = true
	c.used += c.window
	c.pushFront(e)
}

// evict drops a resident window; one with no read in flight leaves the
// table.
func (c *PageCache) evict(e *pageEntry) {
	c.unlink(e)
	e.resident = false
	c.used -= c.window
	if e.fill == nil {
		c.forget(e)
	}
}

// forget removes a window that is neither resident nor filling from the
// table and recycles its entry.
func (c *PageCache) forget(e *pageEntry) {
	delete(c.windows, e.key)
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

// CheckInvariants validates list/table consistency for tests: the list
// holds exactly the resident windows, every window in the table is
// resident or filling, and occupancy matches.
func (c *PageCache) CheckInvariants() error {
	n := 0
	for e := c.head; e != nil; e = e.next {
		if got, ok := c.windows[e.key]; !ok || got != e {
			return fmt.Errorf("pfs: list entry %#x not in the table", e.key)
		}
		if !e.resident {
			return fmt.Errorf("pfs: listed window %#x not resident", e.key)
		}
		if e.next == nil && c.tail != e {
			return fmt.Errorf("pfs: tail mismatch")
		}
		n++
	}
	resident := 0
	//lint:maporder order-independent invariant sweep: every entry must hold, any violation fails
	for key, e := range c.windows {
		if e.key != key {
			return fmt.Errorf("pfs: window %#x filed under %#x", e.key, key)
		}
		if !e.resident && e.fill == nil {
			return fmt.Errorf("pfs: window %#x neither resident nor filling", key)
		}
		if e.fill != nil && e.fill.entry != e {
			return fmt.Errorf("pfs: window %#x's fill belongs to another window", key)
		}
		if e.resident {
			resident++
		}
	}
	if n != resident {
		return fmt.Errorf("pfs: list has %d windows, table %d resident", n, resident)
	}
	if c.used != units.Bytes(n)*c.window {
		return fmt.Errorf("pfs: used %v != %d windows", c.used, n)
	}
	if c.capacity > 0 && c.used > c.capacity {
		return fmt.Errorf("pfs: over capacity")
	}
	return nil
}

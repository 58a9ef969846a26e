// Package disk models the rotational drives behind each PVFS I/O
// server: positioning time (seek + rotational latency), media transfer
// rate, a bounded elevator scheduler that shortens seeks under queue
// depth, and a readahead buffer that makes stream-sequential strip
// reads cheap. These mechanics are what shape the paper's Figure 12:
// per-server throughput improves as concurrent clients deepen the
// queue, until interleaving turns every access into a seek.
package disk

import (
	"fmt"
	"math"

	"sais/internal/deque"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// Config describes one drive. The defaults model the compute nodes'
// 250 GB 7200-RPM SATA disk.
type Config struct {
	MediaRate      units.Rate  // sustained transfer rate off the platter
	TrackToTrack   units.Time  // minimum seek
	FullSeek       units.Time  // end-to-end seek
	RotationPeriod units.Time  // one revolution (8.33 ms at 7200 RPM)
	Span           units.Bytes // addressable capacity, for seek scaling
	ReadAhead      units.Bytes // buffer-cache readahead window
	ElevatorWindow int         // queued requests the scheduler may reorder
}

// DefaultConfig returns the 7.2K-RPM SATA model.
func DefaultConfig() Config {
	return Config{
		MediaRate:      units.Rate(60 * units.MBps),
		TrackToTrack:   500 * units.Microsecond,
		FullSeek:       8 * units.Millisecond,
		RotationPeriod: 8333 * units.Microsecond,
		Span:           250 * units.GiB,
		ReadAhead:      512 * units.KiB,
		ElevatorWindow: 8,
	}
}

// Validate checks the configuration New would build from.
func (c Config) Validate() error {
	switch {
	case c.MediaRate <= 0:
		return fmt.Errorf("disk: media rate %v must be positive", c.MediaRate)
	case c.TrackToTrack < 0 || c.FullSeek < c.TrackToTrack:
		return fmt.Errorf("disk: seek range [%v, %v] invalid", c.TrackToTrack, c.FullSeek)
	case c.RotationPeriod < 0:
		return fmt.Errorf("disk: negative rotation period")
	case c.Span <= 0:
		return fmt.Errorf("disk: span must be positive")
	case c.ReadAhead < 0:
		return fmt.Errorf("disk: negative readahead")
	case c.ElevatorWindow < 1:
		return fmt.Errorf("disk: elevator window must be >= 1")
	}
	return nil
}

// Request is one I/O against the drive.
type request struct {
	lba   units.Bytes
	size  units.Bytes
	write bool
	done  sim.Event
}

// Stats counts drive activity.
type Stats struct {
	Requests   uint64
	Writes     uint64
	Sequential uint64 // served from the readahead window, no positioning
	Seeks      uint64
	BusyTime   units.Time
	SeekTime   units.Time
	Bytes      units.Bytes
	BytesOut   units.Bytes // written
}

// Disk is one drive instance.
type Disk struct {
	cfg     Config
	eng     *sim.Engine
	rotSeed uint64
	// queue holds the waiting requests in arrival order. The elevator
	// dispatches from its first ElevatorWindow entries only, so the
	// ring's O(i) RemoveAt keeps dispatch O(window) at any depth.
	queue deque.Deque[request]
	busy  bool
	// cur is the request in service. The drive serves one at a time, so
	// a single completion event, bound on the first dispatch, finishes
	// every request.
	cur        request
	completeFn sim.Event
	// head is the LBA after the last media access; raEnd is the end of
	// the readahead window filled by it.
	head  units.Bytes
	raEnd units.Bytes
	stats Stats
}

// New builds an idle disk. rnd seeds the per-request rotational-latency
// sequence. It panics on invalid configuration.
func New(eng *sim.Engine, cfg Config, rnd *rng.Source) *Disk {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Disk{cfg: cfg, eng: eng, rotSeed: rnd.Uint64()}
}

// Stats returns a copy of the counters.
func (d *Disk) Stats() Stats { return d.stats }

// Read enqueues a read of size bytes at lba; done fires at completion.
func (d *Disk) Read(lba, size units.Bytes, done sim.Event) {
	d.enqueue(lba, size, false, done)
}

// Write enqueues a write of size bytes at lba; done fires when the
// bytes are on the platter. Positioning mechanics match reads.
func (d *Disk) Write(lba, size units.Bytes, done sim.Event) {
	d.enqueue(lba, size, true, done)
}

func (d *Disk) enqueue(lba, size units.Bytes, write bool, done sim.Event) {
	if size <= 0 {
		panic(fmt.Sprintf("disk: request size %d", size))
	}
	if lba < 0 || lba+size > d.cfg.Span {
		panic(fmt.Sprintf("disk: request [%d,%d) outside span %d", lba, lba+size, d.cfg.Span))
	}
	d.queue.PushBack(request{lba: lba, size: size, write: write, done: done})
	if !d.busy {
		d.dispatch()
	}
}

// dispatch starts the best queued request per the elevator policy.
func (d *Disk) dispatch() {
	if d.queue.Len() == 0 {
		d.busy = false
		return
	}
	d.busy = true
	req := d.queue.RemoveAt(d.pick())

	cost := d.serviceTime(req)
	d.stats.Requests++
	if req.write {
		d.stats.Writes++
		d.stats.BytesOut += req.size
	} else {
		d.stats.Bytes += req.size
	}
	d.stats.BusyTime += cost
	d.cur = req
	if d.completeFn == nil {
		d.completeFn = d.complete
	}
	d.eng.After(cost, d.completeFn)
}

// complete finishes the request in service and starts the next.
//
//saisvet:allocfree
func (d *Disk) complete(now units.Time) {
	done := d.cur.done
	d.cur = request{}
	if done != nil {
		//lint:alloc completion-callback invocation: the callback's allocations belong to its owner's budget
		done(now)
	}
	d.dispatch()
}

// pick selects the request with the shortest head movement among the
// first ElevatorWindow queued — a bounded shortest-seek-first that
// cannot starve (the window slides with the FIFO).
func (d *Disk) pick() int {
	limit := min(d.cfg.ElevatorWindow, d.queue.Len())
	best, bestDist := 0, units.Bytes(-1)
	for i := 0; i < limit; i++ {
		dist := d.queue.At(i).lba - d.head
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// serviceTime computes and applies the physical cost of one request.
func (d *Disk) serviceTime(req request) units.Time {
	var cost units.Time
	if req.lba >= d.head && req.lba+req.size <= d.raEnd {
		// Whole request inside the readahead window: buffer hit, media
		// already streamed it; charge only transfer time.
		d.stats.Sequential++
		cost = d.cfg.MediaRate.TimeFor(req.size)
		d.head = req.lba + req.size
		return cost
	}
	dist := req.lba - d.head
	if dist < 0 {
		dist = -dist
	}
	if dist > 0 {
		frac := float64(dist) / float64(d.cfg.Span)
		seek := d.cfg.TrackToTrack +
			units.Time(float64(d.cfg.FullSeek-d.cfg.TrackToTrack)*math.Sqrt(frac))
		// Rotational latency: uniform over one revolution, derived from
		// the request ordinal rather than a shared stream so that two
		// runs issuing the same access sequence (e.g. the two policies
		// of a paired experiment) pay identical rotational costs even
		// if event interleaving differs.
		var rot units.Time
		if d.cfg.RotationPeriod > 0 {
			// The inline mix below is a full murmur3 finalizer over
			// (rotSeed, ordinal) — the same avalanche quality as
			// rng.Derive, kept verbatim because swapping the constants
			// would reshuffle every rotation-enabled figure baseline.
			x := d.rotSeed + d.stats.Requests //lint:seedarith murmur3 finalizer applied on the next lines
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
			x ^= x >> 33
			rot = units.Time(x % uint64(d.cfg.RotationPeriod))
		}
		cost += seek + rot
		d.stats.Seeks++
		d.stats.SeekTime += seek + rot
	}
	// Media transfer for the request plus readahead fill.
	fill := req.size + d.cfg.ReadAhead
	cost += d.cfg.MediaRate.TimeFor(req.size) // caller waits for its bytes only
	d.head = req.lba + req.size
	d.raEnd = req.lba + fill
	if d.raEnd > d.cfg.Span {
		d.raEnd = d.cfg.Span
	}
	return cost
}

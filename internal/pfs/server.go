package pfs

import (
	"fmt"

	"sais/internal/disk"
	"sais/internal/netsim"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/trace"
	"sais/internal/units"
)

// ServerConfig sizes one I/O server node.
type ServerConfig struct {
	NIC         netsim.NICConfig
	Disk        disk.Config
	RequestCPU  units.Time  // request parse/dispatch cost
	PerStripCPU units.Time  // per returned strip send-path cost
	CacheBytes  units.Bytes // buffer (page) cache capacity; 0 disables
	ReadAhead   units.Bytes // page-cache window read per miss
	// PrefetchDepth is how many upcoming windows the server fetches in
	// the background when it serves a window — Linux-style asynchronous
	// readahead. 0 disables prefetch (every window fill is demand-paged
	// and sits on the request's critical path).
	PrefetchDepth int
}

// DefaultServerConfig models a Sun-Fire X2200 I/O server with the given
// NIC rate: an 8 GB node of which 4 GiB serves as buffer cache, with a
// 256 KiB readahead window (Linux's default is 128 KiB; PVFS servers
// typically double it).
func DefaultServerConfig(rate units.Rate) ServerConfig {
	return ServerConfig{
		NIC:           netsim.DefaultNICConfig(rate),
		Disk:          disk.DefaultConfig(),
		RequestCPU:    120 * units.Microsecond,
		PerStripCPU:   25 * units.Microsecond,
		CacheBytes:    4 * units.GiB,
		ReadAhead:     256 * units.KiB,
		PrefetchDepth: 1,
	}
}

// ServerStats counts server activity.
type ServerStats struct {
	Requests      uint64
	StripsSent    uint64
	BytesSent     units.Bytes
	StripsWritten uint64
	BytesWritten  units.Bytes
	Stalled       uint64 // requests delayed by fault injection
}

// Server is one PVFS I/O server node: NIC + request-processing CPU +
// disk. Its interrupt handling is a single dedicated path (server-side
// scheduling is not the paper's subject), modeled as a FIFO CPU.
type Server struct {
	cfg   ServerConfig
	eng   *sim.Engine
	node  netsim.NodeID
	nic   *netsim.NIC
	cpu   *sim.Server
	dsk   *disk.Disk
	pages *PageCache
	stats ServerStats
	// placement maps a file to the base LBA of this server's local
	// portion.
	placement func(FileID) units.Bytes
	// stall injects a per-request service delay for failure testing.
	stall func() units.Time
	// down makes the server drop all traffic (crash injection).
	down bool
	// cpuScale, when set, multiplies every CPU charge by a
	// load-dependent factor sampled at dispatch time — analytic
	// background requests contending for this server's CPU (hybrid
	// workload engine, DESIGN.md §14).
	//saisvet:nilhook
	cpuScale func(now units.Time) float64
	// spans, when non-nil, records the service phase of every strip.
	spans *trace.SpanLog
	// freeJobs recycles the jobs that carry requests and strips through
	// their service stages.
	freeJobs []*job
}

// NewServer builds a server on node id and attaches its NIC to fab.
func NewServer(eng *sim.Engine, fab *netsim.Fabric, id netsim.NodeID, cfg ServerConfig, rnd *rng.Source) *Server {
	window := cfg.ReadAhead
	if window <= 0 {
		window = 64 * units.KiB
	}
	s := &Server{
		cfg:   cfg,
		eng:   eng,
		node:  id,
		nic:   netsim.NewNIC(eng, id, cfg.NIC),
		cpu:   sim.NewServer(eng),
		dsk:   disk.New(eng, cfg.Disk, rnd.Split(fmt.Sprintf("disk%d", id))),
		pages: NewPageCache(eng, cfg.CacheBytes, window),
	}
	s.placement = s.defaultPlacement
	fab.Attach(s.nic)
	s.nic.SetInterruptHandler(s.onInterrupt)
	return s
}

// NIC returns the server's NIC, for statistics.
func (s *Server) NIC() *netsim.NIC { return s.nic }

// Disk returns the server's disk, for statistics.
func (s *Server) Disk() *disk.Disk { return s.dsk }

// Stats returns a copy of the counters.
func (s *Server) Stats() ServerStats { return s.stats }

// SetStall installs a per-request extra-delay source for failure
// injection; nil disables.
func (s *Server) SetStall(fn func() units.Time) { s.stall = fn }

// SetDown crashes (true) or revives (false) the server: while down it
// drops every received frame, as a dead node would.
func (s *Server) SetDown(down bool) { s.down = down }

// SetSpanLog attaches the lifecycle span recorder; nil disables.
func (s *Server) SetSpanLog(l *trace.SpanLog) { s.spans = l }

// SetCPUScale installs a load-dependent CPU service-time multiplier:
// every request/strip CPU charge is scaled by fn(dispatchTime). fn must
// be ≥ 1, deterministic, and depend only on this node's state. nil
// restores the fixed-cost path.
func (s *Server) SetCPUScale(fn func(now units.Time) float64) { s.cpuScale = fn }

// chargeCPU submits one unit of request-processing work, applying the
// CPU-scale hook when installed. Without a hook the classic fixed-cost
// Submit runs, keeping classic-run output byte-identical.
//
//saisvet:allocfree
func (s *Server) chargeCPU(cost units.Time, done sim.Event) {
	if s.cpuScale == nil {
		s.cpu.Submit(cost, done)
		return
	}
	//lint:alloc hybrid CPU-scale path: one cost closure per scaled charge
	s.cpu.SubmitFunc(func(start units.Time) units.Time {
		return units.Time(float64(cost) * s.cpuScale(start))
	}, done)
}

// defaultPlacement spreads files across the disk deterministically,
// 1 MiB aligned, so different files force real seeks.
func (s *Server) defaultPlacement(f FileID) units.Bytes {
	const align = units.MiB
	span := s.cfg.Disk.Span / 2
	h := uint64(f)*0x9e3779b97f4a7c15 + uint64(s.node)*0x517cc1b727220a95
	return units.Bytes(h%uint64(span/align)) * align
}

// onInterrupt is the server NIC rx path.
func (s *Server) onInterrupt(q int, _ units.Time) {
	frames := s.nic.Drain(q)
	if s.down {
		for _, f := range frames {
			s.nic.Free(f) // crashed: everything received is lost
		}
		return
	}
	for _, f := range frames {
		switch body := f.Body.(type) {
		case *ReadRequest:
			s.handle(body, netsim.ParseHint(f))
		case *StripWrite:
			s.handleWrite(body, netsim.ParseHint(f))
		default:
			// stray traffic
		}
		s.nic.Free(f)
	}
}

// job carries one request or strip through the server's service
// stages. Its stage events are bound once, when the job is first
// allocated, and jobs are pooled per server, so serving a strip
// allocates no closures. A read request runs start (after the request
// CPU charge), which spawns one job per piece; a piece job runs
// windowReady once per page-cache window it waits on, then send after
// the per-strip CPU charge. A write job runs written after its CPU
// charge.
type job struct {
	s       *Server
	req     *ReadRequest
	write   *StripWrite
	piece   Piece
	hint    netsim.AffHint // the request's hint, echoed on every reply (Figure 4)
	pending int            // page-cache windows the piece still waits on

	startFn, windowReadyFn, sendFn, writtenFn sim.Event
}

// newJob returns a pooled (or fresh) job.
//
//saisvet:allocfree
func (s *Server) newJob() *job {
	if n := len(s.freeJobs); n > 0 {
		j := s.freeJobs[n-1]
		s.freeJobs = s.freeJobs[:n-1]
		return j
	}
	//lint:alloc pool growth: a job and its stage events, once per peak number of jobs in flight
	j := &job{s: s}
	j.startFn, j.windowReadyFn, j.sendFn, j.writtenFn = j.start, j.windowReady, j.send, j.written
	return j
}

// free returns a finished job to its server's pool.
//
//saisvet:allocfree
func (j *job) free() {
	j.req, j.write = nil, nil
	j.s.freeJobs = append(j.s.freeJobs, j)
}

// handleWrite accepts one strip of write data: CPU to copy it into the
// buffer cache, an immediate acknowledgement (write-back semantics),
// and an asynchronous flush to the platter. No strip ever needs to be
// delivered to a particular client core, which is why the paper finds
// no interrupt-locality issue on the write path.
func (s *Server) handleWrite(w *StripWrite, hint netsim.AffHint) {
	j := s.newJob()
	j.write, j.hint = w, hint
	s.chargeCPU(s.cfg.PerStripCPU, j.writtenFn)
}

// written acknowledges the strip once its CPU charge completes.
func (j *job) written(units.Time) {
	s, w, hint := j.s, j.write, j.hint
	j.free()
	s.stats.StripsWritten++
	s.stats.BytesWritten += w.Size
	s.nic.Send(w.Client, WriteAckSize, hint, &WriteAck{
		File: w.File, Tag: w.Tag, GlobalStrip: w.GlobalStrip, Size: w.Size,
	})
	// The written bytes are now cache-resident: a subsequent read of
	// this range must not touch the disk.
	first, last := s.pages.Windows(w.ServerOffset, w.Size)
	for win := first; win <= last; win++ {
		s.pages.Put(w.File, win)
	}
	// Asynchronous write-back to the platter.
	lba := s.placement(w.File) + w.ServerOffset
	size := w.Size
	if lba+size > s.cfg.Disk.Span {
		size = s.cfg.Disk.Span - lba
	}
	if size > 0 {
		s.dsk.Write(lba, size, nil)
	}
}

// handle services one read request: request CPU, then per-piece disk
// reads, each followed by send-path CPU and the data frame carrying the
// echoed hint.
func (s *Server) handle(req *ReadRequest, hint netsim.AffHint) {
	s.stats.Requests++
	var extra units.Time
	if s.stall != nil {
		if d := s.stall(); d > 0 {
			extra = d
			s.stats.Stalled++
		}
	}
	if s.spans != nil {
		// The request has arrived: close each strip's issue span and open
		// its service span at the same instant so the chain is gap-free.
		now := s.eng.Now()
		for _, p := range req.Pieces {
			s.spans.End(trace.PhaseIssue, now, int(req.Client), req.Tag, p.GlobalStrip, -1)
			s.spans.Begin(trace.PhaseService, now, int(req.Client), int(s.node), req.Tag, p.GlobalStrip, -1)
		}
	}
	j := s.newJob()
	j.req, j.hint = req, hint
	s.chargeCPU(s.cfg.RequestCPU+extra, j.startFn)
}

// start runs when the request's CPU charge completes: every piece
// starts reading.
func (j *job) start(units.Time) {
	s, req, hint := j.s, j.req, j.hint
	j.free()
	for _, p := range req.Pieces {
		pj := s.newJob()
		pj.req, pj.piece, pj.hint = req, p, hint
		s.readPiece(pj)
	}
}

// windowReady counts one of the piece's windows resident; the last one
// queues the strip's send-path CPU.
//
//saisvet:allocfree
func (j *job) windowReady(units.Time) {
	j.pending--
	if j.pending == 0 {
		j.s.chargeCPU(j.s.cfg.PerStripCPU, j.sendFn)
	}
}

// send returns the strip to the client with the echoed hint.
func (j *job) send(now units.Time) {
	s, req, p, hint := j.s, j.req, j.piece, j.hint
	j.free()
	s.stats.StripsSent++
	s.stats.BytesSent += p.Size
	if s.spans != nil {
		s.spans.End(trace.PhaseService, now, int(req.Client), req.Tag, p.GlobalStrip, -1)
	}
	s.nic.Send(req.Client, p.Size, hint, &StripData{
		File:        req.File,
		Tag:         req.Tag,
		GlobalStrip: p.GlobalStrip,
		Size:        p.Size,
	})
}

// readPiece makes the piece's bytes memory-resident: every page-cache
// window the piece overlaps is either already cached, being fetched (we
// join the wait), or read from disk as a whole readahead window. The
// job's windowReady fires once per window.
//
//saisvet:allocfree
func (s *Server) readPiece(j *job) {
	file := j.req.File
	first, last := s.pages.Windows(j.piece.ServerOffset, j.piece.Size)
	j.pending = int(last-first) + 1
	for w := first; w <= last; w++ {
		s.fetchWindow(file, w, j.windowReadyFn)
	}
	// Asynchronous readahead: warm the windows a sequential stream will
	// need next, without anyone waiting on them. Bounded by the local
	// portion's EOF so the disk never reads bytes no request can want.
	if localEOF := j.req.LocalEOF; localEOF > 0 {
		lastWindow := int64((localEOF - 1) / s.pages.Window())
		for d := int64(1); d <= int64(s.cfg.PrefetchDepth); d++ {
			if last+d > lastWindow {
				break
			}
			s.fetchWindow(file, last+d, func(units.Time) {})
		}
	}
}

// fetchWindow makes window w of file resident via the page cache,
// demand-reading it from disk on a miss.
//
//saisvet:allocfree
func (s *Server) fetchWindow(file FileID, w int64, done sim.Event) {
	//lint:alloc stays on the stack: Get only calls its fetch argument (TestCachedPieceAllocFree)
	s.pages.Get(file, w, done, func(fetched sim.Event) {
		off, size := s.pages.WindowExtent(w)
		lba := s.placement(file) + off
		if lba+size > s.cfg.Disk.Span {
			size = s.cfg.Disk.Span - lba
		}
		if size <= 0 {
			// Window starts past the end of the disk (placement
			// pathology); treat as instantaneous.
			s.eng.Immediately(fetched)
			return
		}
		s.dsk.Read(lba, size, fetched)
	})
}

// CPUBusy returns the server CPU's cumulative busy time.
func (s *Server) CPUBusy() units.Time { return s.cpu.BusyTime() }

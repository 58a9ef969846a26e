package pfs

import (
	"testing"

	"sais/internal/netsim"
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// harness: one client NIC (node 1), one server (node 100), one MDS
// (node 50).
type harness struct {
	eng    *sim.Engine
	fab    *netsim.Fabric
	client *netsim.NIC
	srv    *Server
	mds    *MetadataServer
	rx     []*netsim.Frame
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine()}
	h.fab = netsim.NewFabric(h.eng, 10*units.Microsecond, 256)
	h.client = netsim.NewNIC(h.eng, 1, netsim.DefaultNICConfig(3*units.Gigabit))
	h.fab.Attach(h.client)
	h.client.SetInterruptHandler(func(q int, _ units.Time) {
		h.rx = append(h.rx, h.client.Drain(q)...)
	})
	scfg := DefaultServerConfig(units.Gigabit)
	scfg.Disk.RotationPeriod = 0 // determinism for asserts
	h.srv = NewServer(h.eng, h.fab, 100, scfg, rng.New(1))
	h.mds = NewMetadataServer(h.eng, h.fab, 50, DefaultMetadataConfig(units.Gigabit),
		func(FileID) Layout {
			return Layout{StripSize: 64 * units.KiB, Servers: []netsim.NodeID{100}}
		})
	return h
}

func (h *harness) sendRequest(hint netsim.AffHint, pieces []Piece) {
	h.eng.At(0, func(units.Time) {
		h.client.Send(100, RequestSize, hint, &ReadRequest{
			File:   7,
			Tag:    1,
			Client: 1,
			Pieces: pieces,
		})
	})
}

func strips(n int) []Piece {
	out := make([]Piece, n)
	for i := range out {
		out[i] = Piece{GlobalStrip: i, ServerOffset: units.Bytes(i) * 64 * units.KiB, Size: 64 * units.KiB}
	}
	return out
}

// TestReadRequestTotalBytes: a server sends back exactly the bytes of
// the request's pieces, partial pieces included.
func TestReadRequestTotalBytes(t *testing.T) {
	h := newHarness(t)
	h.sendRequest(netsim.AffHint{}, []Piece{
		{GlobalStrip: 0, ServerOffset: 0, Size: 10},
		{GlobalStrip: 1, ServerOffset: 64 * units.KiB, Size: 20},
	})
	h.eng.RunUntilIdle()
	var got units.Bytes
	for _, f := range h.rx {
		got += f.Body.(*StripData).Size
	}
	if got != 30 || h.srv.Stats().BytesSent != 30 {
		t.Errorf("returned %v (server counts %v), want the pieces' 30 bytes", got, h.srv.Stats().BytesSent)
	}
}

func TestServerReturnsAllStrips(t *testing.T) {
	h := newHarness(t)
	h.sendRequest(netsim.Hint(3), strips(4))
	h.eng.RunUntilIdle()
	if len(h.rx) != 4 {
		t.Fatalf("client received %d frames, want 4", len(h.rx))
	}
	var bytes units.Bytes
	seen := map[int]bool{}
	for _, f := range h.rx {
		sd, ok := f.Body.(*StripData)
		if !ok {
			t.Fatalf("frame body %T", f.Body)
		}
		if sd.Tag != 1 || sd.File != 7 {
			t.Errorf("strip data = %+v", sd)
		}
		seen[sd.GlobalStrip] = true
		bytes += f.Payload
	}
	if bytes != 256*units.KiB {
		t.Errorf("returned %v, want 256KiB", bytes)
	}
	if len(seen) != 4 {
		t.Errorf("distinct strips = %d", len(seen))
	}
	st := h.srv.Stats()
	if st.Requests != 1 || st.StripsSent != 4 || st.BytesSent != 256*units.KiB {
		t.Errorf("server stats = %+v", st)
	}
}

// TestServerEchoesHint: every data frame carries its request's hint,
// and a request without one (a baseline policy's) gets none back.
func TestServerEchoesHint(t *testing.T) {
	for _, want := range []netsim.AffHint{netsim.Hint(5), {}} {
		h := newHarness(t)
		h.sendRequest(want, strips(2))
		h.eng.RunUntilIdle()
		if len(h.rx) != 2 {
			t.Fatalf("rx = %d", len(h.rx))
		}
		for _, f := range h.rx {
			if got := netsim.ParseHint(f); got != want {
				t.Errorf("data frame hint = %v, want %v", got, want)
			}
		}
	}
}

func TestServerIgnoresStrayTraffic(t *testing.T) {
	h := newHarness(t)
	h.eng.At(0, func(units.Time) {
		h.client.Send(100, units.KiB, netsim.AffHint{}, "garbage")
	})
	h.eng.RunUntilIdle()
	if h.srv.Stats().Requests != 0 {
		t.Error("stray frame counted as request")
	}
}

func TestServerStall(t *testing.T) {
	fast := newHarness(t)
	fast.sendRequest(netsim.AffHint{}, strips(1))
	fastEnd := func() units.Time { fast.eng.RunUntilIdle(); return fast.eng.Now() }()

	slow := newHarness(t)
	slow.srv.SetStall(func() units.Time { return 5 * units.Millisecond })
	slow.sendRequest(netsim.AffHint{}, strips(1))
	slowEnd := func() units.Time { slow.eng.RunUntilIdle(); return slow.eng.Now() }()

	if slowEnd-fastEnd < 4*units.Millisecond {
		t.Errorf("stall added only %v", slowEnd-fastEnd)
	}
	if slow.srv.Stats().Stalled != 1 {
		t.Errorf("stalled = %d", slow.srv.Stats().Stalled)
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	h := newHarness(t)
	h.eng.At(0, func(units.Time) {
		h.client.Send(50, LayoutRequestSize, netsim.AffHint{}, &LayoutRequest{File: 7, Tag: 9, Client: 1})
	})
	h.eng.RunUntilIdle()
	if len(h.rx) != 1 {
		t.Fatalf("rx = %d frames", len(h.rx))
	}
	rep, ok := h.rx[0].Body.(*LayoutReply)
	if !ok {
		t.Fatalf("body = %T", h.rx[0].Body)
	}
	if rep.Tag != 9 || rep.File != 7 || len(rep.Layout.Servers) != 1 {
		t.Errorf("reply = %+v", rep)
	}
}

func TestPlacementDistinctFiles(t *testing.T) {
	h := newHarness(t)
	a := h.srv.placement(1)
	b := h.srv.placement(2)
	if a == b {
		t.Error("distinct files placed at the same LBA")
	}
	if a%units.MiB != 0 || b%units.MiB != 0 {
		t.Error("placement not MiB aligned")
	}
	span := h.srv.cfg.Disk.Span
	if a < 0 || a >= span || b < 0 || b >= span {
		t.Error("placement outside disk span")
	}
	if h.srv.placement(1) != a {
		t.Error("placement not deterministic")
	}
}

func TestPageCacheAbsorbsSequentialStrips(t *testing.T) {
	// Strips within one request are contiguous on the local disk, so
	// the page cache should fetch whole readahead windows: 8 strips of
	// 64 KiB at a 256 KiB window = 2 disk reads, not 8.
	h := newHarness(t)
	h.sendRequest(netsim.AffHint{}, strips(8))
	h.eng.RunUntilIdle()
	if got := h.srv.Disk().Stats().Requests; got != 2 {
		t.Errorf("disk requests = %d, want 2", got)
	}
	if len(h.rx) != 8 {
		t.Errorf("strips returned = %d, want 8", len(h.rx))
	}
}

func TestPageCacheServesRereads(t *testing.T) {
	// A second client (or run) reading the same range must not touch
	// the disk again — the Figure-12 shared-file mechanism.
	h := newHarness(t)
	h.sendRequest(netsim.AffHint{}, strips(4))
	h.eng.RunUntilIdle()
	diskBefore := h.srv.Disk().Stats().Requests
	h.eng.At(h.eng.Now(), func(units.Time) {
		h.client.Send(100, RequestSize, netsim.AffHint{}, &ReadRequest{
			File: 7, Tag: 2, Client: 1, Pieces: strips(4),
		})
	})
	h.eng.RunUntilIdle()
	if got := h.srv.Disk().Stats().Requests; got != diskBefore {
		t.Errorf("re-read touched the disk: %d -> %d requests", diskBefore, got)
	}
	if len(h.rx) != 8 {
		t.Errorf("client frames = %d, want 8", len(h.rx))
	}
}

func TestWritePopulatesPageCache(t *testing.T) {
	// Write a range, then read it back: the read must be served from
	// the buffer cache without a demand disk read.
	h := newHarness(t)
	h.eng.At(0, func(units.Time) {
		for i := 0; i < 4; i++ {
			h.client.Send(100, 64*units.KiB, netsim.AffHint{}, &StripWrite{
				File: 7, Tag: 1, Client: 1, GlobalStrip: i,
				ServerOffset: units.Bytes(i) * 64 * units.KiB, Size: 64 * units.KiB,
			})
		}
	})
	h.eng.RunUntilIdle()
	reads := h.srv.Disk().Stats().Requests - h.srv.Disk().Stats().Writes
	if reads != 0 {
		t.Fatalf("writes caused %d demand reads", reads)
	}
	h.rx = nil
	h.eng.At(h.eng.Now(), func(units.Time) {
		h.client.Send(100, RequestSize, netsim.AffHint{}, &ReadRequest{
			File: 7, Tag: 2, Client: 1, Pieces: strips(4),
		})
	})
	h.eng.RunUntilIdle()
	if len(h.rx) != 4 {
		t.Fatalf("read back %d strips", len(h.rx))
	}
	reads = h.srv.Disk().Stats().Requests - h.srv.Disk().Stats().Writes
	if reads != 0 {
		t.Errorf("read-after-write touched the disk %d times", reads)
	}
}

func TestServerDownDropsTraffic(t *testing.T) {
	h := newHarness(t)
	h.srv.SetDown(true)
	h.sendRequest(netsim.AffHint{}, strips(2))
	h.eng.RunUntilIdle()
	if len(h.rx) != 0 {
		t.Errorf("crashed server answered %d frames", len(h.rx))
	}
	if h.srv.Stats().Requests != 0 {
		t.Error("crashed server counted a request")
	}
	// Revive and retry: the server must serve again.
	h.srv.SetDown(false)
	if h.srv.down {
		t.Error("down after revive")
	}
	h.eng.At(h.eng.Now(), func(units.Time) {
		h.client.Send(100, RequestSize, netsim.AffHint{}, &ReadRequest{
			File: 7, Tag: 2, Client: 1, Pieces: strips(2),
		})
	})
	h.eng.RunUntilIdle()
	if len(h.rx) != 2 {
		t.Errorf("revived server returned %d strips, want 2", len(h.rx))
	}
}

func TestServerAccessors(t *testing.T) {
	h := newHarness(t)
	if h.srv.NIC() == nil || h.srv.Disk() == nil {
		t.Error("nil accessors")
	}
	if h.srv.pages.Window() != 256*units.KiB {
		t.Errorf("window = %v", h.srv.pages.Window())
	}
	h.sendRequest(netsim.AffHint{}, strips(1))
	h.eng.RunUntilIdle()
	if h.srv.CPUBusy() <= 0 {
		t.Error("server CPU never busy")
	}
}

// pieceLoop serves one cached piece through a server's piece stages —
// page-cache lookup with readahead, window-ready count, per-strip CPU —
// up to the send stage, which the loop replaces with a counter: the
// send's one allocation is the StripData message body, which crosses
// nodes and is not the server's to pool.
type pieceLoop struct {
	eng    *sim.Engine
	srv    *Server
	j      *job
	served int
}

func newPieceLoop() *pieceLoop {
	l := &pieceLoop{eng: sim.NewEngine()}
	fab := netsim.NewFabric(l.eng, 0, 256)
	l.srv = NewServer(l.eng, fab, 100, DefaultServerConfig(units.Gigabit), rng.New(1))
	req := &ReadRequest{File: 7, Client: 1, Pieces: strips(1), LocalEOF: units.MiB}
	// The piece's window and its readahead successor are resident.
	l.srv.pages.Put(req.File, 0)
	l.srv.pages.Put(req.File, 1)
	l.j = l.srv.newJob()
	l.j.req, l.j.piece = req, req.Pieces[0]
	l.j.sendFn = func(units.Time) { l.served++ }
	l.cycle() // warm the engine arena and the CPU ring
	return l
}

func (l *pieceLoop) cycle() {
	l.srv.readPiece(l.j)
	l.eng.RunUntilIdle()
}

func TestCachedPieceAllocFree(t *testing.T) {
	l := newPieceLoop()
	if allocs := testing.AllocsPerRun(100, l.cycle); allocs != 0 {
		t.Errorf("cached piece read allocates %v, want 0", allocs)
	}
	if reads := l.srv.dsk.Stats().Requests; l.served != 102 || reads != 0 {
		t.Fatalf("served %d pieces with %d disk reads; want 102, 0", l.served, reads)
	}
}

// BenchmarkPieceService measures one pieceLoop cycle: a cached piece
// from page-cache lookup (plus its readahead probe) to the send stage.
func BenchmarkPieceService(b *testing.B) {
	l := newPieceLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.cycle()
	}
}

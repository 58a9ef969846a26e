package netsim

import (
	"testing"

	"sais/internal/sim"
	"sais/internal/units"
)

// frameLoop is a warmed steady-state datapath: node 1 sends hinted
// frames to node 2, whose interrupt handler drains, parses and frees
// every frame and answers each with a small reply that node 1 frees.
// With remote set, node 2 sits on a second fabric and frames cross
// through the SetRemote hooks and Fabric.Arrival, the way the sharded
// cluster routes them; the replies then return frames to the sending
// fabric's pool, as request/response traffic does.
type frameLoop struct {
	eng      *sim.Engine
	tx, rx   *NIC
	received int
	hinted   int
}

func newFrameLoop(remote bool) *frameLoop {
	l := &frameLoop{eng: sim.NewEngine()}
	cfg := DefaultNICConfig(3 * units.Gigabit)
	txFab := NewFabric(l.eng, 10*units.Microsecond, 100)
	rxFab := txFab
	if remote {
		rxFab = NewFabric(l.eng, 10*units.Microsecond, 100)
		link := func(dst *Fabric) RemoteForward {
			return func(fr *Frame, _, deliverAt units.Time, key FrameKey) bool {
				l.eng.AtOrigin(deliverAt, key.Origin(), dst.Arrival(fr))
				return true
			}
		}
		txFab.SetRemote(link(rxFab))
		rxFab.SetRemote(link(txFab))
	}
	l.tx, l.rx = NewNIC(l.eng, 1, cfg), NewNIC(l.eng, 2, cfg)
	txFab.Attach(l.tx)
	rxFab.Attach(l.rx)
	l.rx.SetInterruptHandler(func(q int, _ units.Time) {
		for _, f := range l.rx.Drain(q) {
			if h, err := ReadHint(f); err == nil && h.Valid {
				l.hinted++
			}
			l.received++
			l.rx.Free(f)
			l.rx.Send(1, 64, AffHint{}, nil)
		}
	})
	l.tx.SetInterruptHandler(func(q int, _ units.Time) {
		for _, f := range l.tx.Drain(q) {
			l.tx.Free(f)
		}
	})
	l.cycle() // fill the frame pool, the server rings and the engine arena
	return l
}

func (l *frameLoop) cycle() {
	for i := 0; i < 8; i++ {
		l.tx.Send(2, 64*units.KiB, Hint(i%4), nil)
	}
	l.eng.RunUntilIdle()
}

func TestFrameRoundTripAllocFree(t *testing.T) {
	for _, remote := range []bool{false, true} {
		l := newFrameLoop(remote)
		if allocs := testing.AllocsPerRun(100, l.cycle); allocs != 0 {
			t.Errorf("remote=%v: send→deliver→Free allocates %v per cycle, want 0", remote, allocs)
		}
		if want := 8 * 102; l.received != want || l.hinted != want {
			t.Fatalf("remote=%v: received %d (%d hinted), want %d", remote, l.received, l.hinted, want)
		}
	}
}

func TestReadHintAllocFree(t *testing.T) {
	l := newFrameLoop(false)
	f := l.tx.newFrame(2, units.KiB, Hint(9), nil)
	var got AffHint
	if allocs := testing.AllocsPerRun(100, func() { got, _ = ReadHint(f) }); allocs != 0 {
		t.Errorf("ReadHint allocates %v per call, want 0", allocs)
	}
	if got != Hint(9) {
		t.Errorf("ReadHint = %v, want aff_core=9", got)
	}
	f.Header[12] ^= 0xff
	if h, err := ReadHint(f); err != ErrBadChecksum || h.Valid {
		t.Errorf("corrupted header: hint %v, err %v; want no hint, ErrBadChecksum", h, err)
	}
}

// TestFrameReuseClearsDatapathState sends a frame, frees it, and sends
// the recycled frame between two other nodes: the pool must hand back
// the same frame with its stage events still bound and no stale wire
// size or NIC pointers, and the second trip must land at the new
// destination only.
func TestFrameReuseClearsDatapathState(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, units.Microsecond, 100)
	cfg := DefaultNICConfig(units.Gigabit)
	nics := make([]*NIC, 5)
	for id := 1; id <= 4; id++ {
		nics[id] = NewNIC(eng, NodeID(id), cfg)
		fab.Attach(nics[id])
	}
	var seen []*Frame
	for _, n := range nics[1:] {
		n := n
		n.SetInterruptHandler(func(q int, _ units.Time) {
			for _, f := range n.Drain(q) {
				if f.tx == nil || f.rx != n || f.fab != fab || f.wire != wireBytes(f.Payload, cfg.MTU, cfg.Overhead) {
					t.Errorf("in-flight frame state: tx %p rx %p (want %p) fab %p wire %v", f.tx, f.rx, n, f.fab, f.wire)
				}
				seen = append(seen, f)
				n.Free(f)
			}
		})
	}
	nics[1].Send(2, 9000, Hint(1), "first")
	eng.RunUntilIdle()
	if len(seen) != 1 || nics[2].Stats().RxFrames != 1 {
		t.Fatalf("first trip: %d frames seen, node 2 received %d", len(seen), nics[2].Stats().RxFrames)
	}
	first := seen[0]
	if first.wire != 0 || first.tx != nil || first.rx != nil || first.fab != nil {
		t.Errorf("freed frame keeps datapath state: wire %v tx %p rx %p fab %p", first.wire, first.tx, first.rx, first.fab)
	}
	if first.txDoneFn == nil || first.arriveFn == nil || first.rxDoneFn == nil {
		t.Fatal("freed frame lost its bound stage events")
	}
	if allocs := testing.AllocsPerRun(10, func() { fab.FreeFrame(fab.NewFrame()) }); allocs != 0 {
		t.Errorf("pool round trip allocates %v, want 0 (events must not be rebound)", allocs)
	}

	nics[3].Send(4, 100, AffHint{}, "second")
	eng.RunUntilIdle()
	if len(seen) != 2 || seen[1] != first {
		t.Fatalf("second trip did not reuse the pooled frame (%d frames seen)", len(seen))
	}
	if got := [5]uint64{0, nics[1].Stats().RxFrames, nics[2].Stats().RxFrames, nics[3].Stats().RxFrames, nics[4].Stats().RxFrames}; got != [5]uint64{0, 0, 1, 0, 1} {
		t.Errorf("rx frames per node = %v, want only nodes 2 and 4 to receive once", got[1:])
	}
	if got := nics[3].Stats().TxWire; got != wireBytes(100, cfg.MTU, cfg.Overhead) {
		t.Errorf("second sender's wire bytes = %v, want the recycled frame's own size", got)
	}
}

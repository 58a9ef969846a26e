package netsim

import (
	"testing"
	"testing/quick"

	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// testNet builds a two-node fabric: node 1 (sender) and node 2
// (receiver), both at the given rates.
func testNet(t *testing.T, latency units.Time, txCfg, rxCfg NICConfig) (*sim.Engine, *NIC, *NIC) {
	t.Helper()
	eng := sim.NewEngine()
	fab := NewFabric(eng, latency, 100)
	tx := NewNIC(eng, 1, txCfg)
	rx := NewNIC(eng, 2, rxCfg)
	fab.Attach(tx)
	fab.Attach(rx)
	return eng, tx, rx
}

func TestFrameDeliveryAndHint(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	eng, tx, rx := testNet(t, 10*units.Microsecond, cfg, cfg)
	var gotFrames []*Frame
	rx.SetInterruptHandler(func(q int, _ units.Time) {
		gotFrames = append(gotFrames, rx.Drain(q)...)
	})
	eng.At(0, func(units.Time) {
		tx.Send(2, 64*units.KiB, Hint(3), "strip-A")
	})
	eng.RunUntilIdle()
	if len(gotFrames) != 1 {
		t.Fatalf("received %d frames, want 1", len(gotFrames))
	}
	f := gotFrames[0]
	if f.Payload != 64*units.KiB || f.Body != "strip-A" {
		t.Errorf("frame = %+v", f)
	}
	h := ParseHint(f)
	if !h.Valid || h.Core != 3 {
		t.Errorf("ParseHint = %v, want aff_core=3", h)
	}
}

func TestNoHintFrames(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	eng, tx, rx := testNet(t, 0, cfg, cfg)
	var got AffHint
	rx.SetInterruptHandler(func(q int, _ units.Time) {
		for _, f := range rx.Drain(q) {
			got = ParseHint(f)
		}
	})
	eng.At(0, func(units.Time) { tx.Send(2, units.KiB, AffHint{}, nil) })
	eng.RunUntilIdle()
	if got.Valid {
		t.Errorf("hint = %v, want none", got)
	}
}

func TestSerializationTime(t *testing.T) {
	// 125 MB/s; 64 KiB strip = 44 packets * 78 B overhead = 68968 wire bytes.
	cfg := DefaultNICConfig(units.Gigabit)
	eng, tx, rx := testNet(t, 0, cfg, cfg)
	var at units.Time
	rx.SetInterruptHandler(func(q int, now units.Time) { rx.Drain(q); at = now })
	eng.At(0, func(units.Time) { tx.Send(2, 64*units.KiB, AffHint{}, nil) })
	eng.RunUntilIdle()
	wire := units.Bytes(64*1024 + 44*78)
	want := 2 * units.Gigabit.TimeFor(wire) // tx then rx serialization
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestReceiverRateLimits(t *testing.T) {
	// Fast sender (10 Gbit) into slow receiver (1 Gbit): aggregate
	// delivery is bounded by the receiver.
	tx := DefaultNICConfig(10 * units.Gigabit)
	rx := DefaultNICConfig(units.Gigabit)
	eng, txn, rxn := testNet(t, 0, tx, rx)
	var done units.Time
	var bytes units.Bytes
	rxn.SetInterruptHandler(func(q int, now units.Time) {
		for _, f := range rxn.Drain(q) {
			bytes += f.Payload
			done = now
		}
	})
	const strips = 20
	eng.At(0, func(units.Time) {
		for i := 0; i < strips; i++ {
			txn.Send(2, 64*units.KiB, AffHint{}, i)
		}
	})
	eng.RunUntilIdle()
	if bytes != strips*64*units.KiB {
		t.Fatalf("delivered %v", bytes)
	}
	rate := units.Over(bytes, done)
	if rate > units.Gigabit {
		t.Errorf("delivery rate %v exceeds receiver line rate", rate)
	}
	if rate < 0.8*units.Gigabit {
		t.Errorf("delivery rate %v too far below saturated line", rate)
	}
}

func TestCoalescing(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	cfg.CoalesceFrames = 4
	cfg.CoalesceDelay = units.Millisecond
	eng, tx, rx := testNet(t, 0, cfg, cfg)
	interrupts := 0
	rx.SetInterruptHandler(func(q int, _ units.Time) { interrupts++; rx.Drain(q) })
	eng.At(0, func(units.Time) {
		for i := 0; i < 8; i++ {
			tx.Send(2, units.KiB, AffHint{}, nil)
		}
	})
	eng.RunUntilIdle()
	if interrupts != 2 {
		t.Errorf("interrupts = %d, want 2 (8 frames / coalesce 4)", interrupts)
	}
}

func TestCoalesceTimerFires(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	cfg.CoalesceFrames = 100
	cfg.CoalesceDelay = 50 * units.Microsecond
	eng, tx, rx := testNet(t, 0, cfg, cfg)
	var when units.Time
	rx.SetInterruptHandler(func(q int, now units.Time) { when = now; rx.Drain(q) })
	eng.At(0, func(units.Time) { tx.Send(2, units.KiB, AffHint{}, nil) })
	eng.RunUntilIdle()
	if when == 0 {
		t.Fatal("interrupt never fired with pending frame below threshold")
	}
	if rx.Stats().Interrupts != 1 {
		t.Errorf("interrupts = %d", rx.Stats().Interrupts)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	cfg.RingSize = 4
	cfg.CoalesceFrames = 1000 // never drain
	cfg.CoalesceDelay = units.Second
	eng, tx, rx := testNet(t, 0, cfg, cfg)
	eng.At(0, func(units.Time) {
		for i := 0; i < 10; i++ {
			tx.Send(2, units.KiB, AffHint{}, nil)
		}
	})
	eng.RunUntilIdle()
	st := rx.Stats()
	if st.RingDrops != 6 {
		t.Errorf("drops = %d, want 6", st.RingDrops)
	}
	if st.RxFrames != 4 {
		t.Errorf("rx frames = %d, want 4", st.RxFrames)
	}
}

func TestFabricLoss(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 100)
	tx, rx := NewNIC(eng, 1, cfg), NewNIC(eng, 2, cfg)
	fab.Attach(tx)
	fab.Attach(rx)
	drop := true
	fab.SetLoss(func(FrameKey) bool { d := drop; drop = !drop; return d })
	got := 0
	rx.SetInterruptHandler(func(q int, _ units.Time) { got += len(rx.Drain(q)) })
	eng.At(0, func(units.Time) {
		for i := 0; i < 10; i++ {
			tx.Send(2, units.KiB, AffHint{}, nil)
		}
	})
	eng.RunUntilIdle()
	if got != 5 {
		t.Errorf("delivered %d, want 5 with alternating loss", got)
	}
	if fab.Dropped() != 5 {
		t.Errorf("fabric dropped %d, want 5", fab.Dropped())
	}
}

func TestSendToUnknownNode(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 100)
	tx := NewNIC(eng, 1, cfg)
	fab.Attach(tx)
	eng.At(0, func(units.Time) { tx.Send(99, units.KiB, AffHint{}, nil) })
	eng.RunUntilIdle()
	if fab.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", fab.Dropped())
	}
}

// TestSendOutsideIDSpaceDrops sends to ids below and beyond the
// fabric's id space: each frame is dropped and counted at forwarding,
// returned to the pool, and never handed to the cross-shard hook, and
// the sender's flow sequences toward real peers are untouched.
func TestSendOutsideIDSpaceDrops(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 8)
	tx, rx := NewNIC(eng, 1, cfg), NewNIC(eng, 2, cfg)
	fab.Attach(tx)
	fab.Attach(rx)
	fab.SetRemote(func(*Frame, units.Time, units.Time, FrameKey) bool {
		t.Error("out-of-space destination reached the cross-shard hook")
		return true
	})
	var seqs []uint64
	rx.SetInterruptHandler(func(q int, _ units.Time) {
		for _, f := range rx.Drain(q) {
			seqs = append(seqs, f.FlowSeq)
			rx.Free(f)
		}
	})
	eng.At(0, func(units.Time) {
		tx.Send(2, units.KiB, AffHint{}, nil)
		tx.Send(-3, units.KiB, AffHint{}, nil)
		tx.Send(8, units.KiB, AffHint{}, nil)
		tx.Send(1<<40, units.KiB, AffHint{}, nil)
		tx.Send(2, units.KiB, AffHint{}, nil)
	})
	eng.RunUntilIdle()
	if fab.Dropped() != 3 {
		t.Errorf("dropped %d, want 3", fab.Dropped())
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
		t.Errorf("flow sequences to node 2 = %v, want [0 1]", seqs)
	}
	if len(fab.framePool) != 5 {
		t.Errorf("pool holds %d frames after the run, want all 5 back", len(fab.framePool))
	}
}

func TestAttachOutsideIDSpacePanics(t *testing.T) {
	for _, id := range []NodeID{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("attaching node %d to an 8-id fabric did not panic", id)
				}
			}()
			NewFabric(sim.NewEngine(), 0, 8).Attach(NewNIC(sim.NewEngine(), id, DefaultNICConfig(units.Gigabit)))
		}()
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 100)
	fab.Attach(NewNIC(eng, 1, DefaultNICConfig(units.Gigabit)))
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach did not panic")
		}
	}()
	fab.Attach(NewNIC(eng, 1, DefaultNICConfig(units.Gigabit)))
}

func TestUnattachedSendPanics(t *testing.T) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, 1, DefaultNICConfig(units.Gigabit))
	defer func() {
		if recover() == nil {
			t.Error("send on unattached NIC did not panic")
		}
	}()
	nic.Send(2, units.KiB, AffHint{}, nil)
}

func TestNICConfigValidation(t *testing.T) {
	bad := []NICConfig{
		{Rate: 0, MTU: 1500, RingSize: 8, CoalesceFrames: 1},
		{Rate: 1, MTU: 0, RingSize: 8, CoalesceFrames: 1},
		{Rate: 1, MTU: 1500, RingSize: 0, CoalesceFrames: 1},
		{Rate: 1, MTU: 1500, RingSize: 8, CoalesceFrames: 0},
		{Rate: 1, MTU: 1500, Overhead: -1, RingSize: 8, CoalesceFrames: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewNIC accepted %+v", i, cfg)
				}
			}()
			NewNIC(sim.NewEngine(), 1, cfg)
		}()
	}
}

func TestWireBytes(t *testing.T) {
	if got := wireBytes(1500, 1500, 78); got != 1578 {
		t.Errorf("one full packet = %d, want 1578", got)
	}
	if got := wireBytes(1501, 1500, 78); got != 1501+2*78 {
		t.Errorf("two packets = %d", got)
	}
	if got := wireBytes(0, 1500, 78); got != 78 {
		t.Errorf("empty payload = %d, want 78", got)
	}
}

func TestBondedPortsAggregateRate(t *testing.T) {
	// 3×1-Gbit round-robin bond should deliver ~3 Gbit aggregate from
	// three senders; a single 1-Gbit port caps at 1 Gbit.
	run := func(ports int) units.Rate {
		eng := sim.NewEngine()
		fab := NewFabric(eng, 0, 100)
		rxCfg := DefaultNICConfig(units.Gigabit)
		rxCfg.Ports = ports
		rx := NewNIC(eng, 99, rxCfg)
		fab.Attach(rx)
		var bytes units.Bytes
		var last units.Time
		rx.SetInterruptHandler(func(q int, now units.Time) {
			for _, f := range rx.Drain(q) {
				bytes += f.Payload
				last = now
			}
		})
		for s := 0; s < 3; s++ {
			tx := NewNIC(eng, NodeID(1+s), DefaultNICConfig(units.Gigabit))
			fab.Attach(tx)
			txc := tx
			eng.At(0, func(units.Time) {
				for i := 0; i < 16; i++ {
					txc.Send(99, 64*units.KiB, AffHint{}, nil)
				}
			})
		}
		eng.RunUntilIdle()
		return units.Over(bytes, last)
	}
	single := run(1)
	bonded := run(3)
	if bonded < 2.5*single {
		t.Errorf("bonded rate %v not ~3x single-port %v", bonded, single)
	}
}

func TestFlowHashBondPinsPeers(t *testing.T) {
	// Under 802.3ad-style bonding one peer's traffic uses one port, so
	// a single flow cannot exceed the per-port rate.
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 100)
	rxCfg := DefaultNICConfig(units.Gigabit)
	rxCfg.Ports = 3
	rxCfg.Bond = BondFlowHash
	rx := NewNIC(eng, 99, rxCfg)
	fab.Attach(rx)
	var bytes units.Bytes
	var last units.Time
	rx.SetInterruptHandler(func(q int, now units.Time) {
		for _, f := range rx.Drain(q) {
			bytes += f.Payload
			last = now
		}
	})
	tx := NewNIC(eng, 1, DefaultNICConfig(3*units.Gigabit))
	fab.Attach(tx)
	eng.At(0, func(units.Time) {
		for i := 0; i < 32; i++ {
			tx.Send(99, 64*units.KiB, AffHint{}, nil)
		}
	})
	eng.RunUntilIdle()
	rate := units.Over(bytes, last)
	if rate > 1.1*units.Gigabit {
		t.Errorf("single flow achieved %v over a flow-hashed bond; per-port cap is 1 Gbit", rate)
	}
}

func TestNegativePortsRejected(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	cfg.Ports = -1
	defer func() {
		if recover() == nil {
			t.Error("negative ports accepted")
		}
	}()
	NewNIC(sim.NewEngine(), 1, cfg)
}

// Property: frames between one (src, dst) pair are delivered in the
// order they were sent, whatever the sizes — store-and-forward FIFO
// along the whole path.
func TestInOrderDeliveryProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		eng := sim.NewEngine()
		fab := NewFabric(eng, units.Time(r.Intn(100))*units.Microsecond, 100)
		tx := NewNIC(eng, 1, DefaultNICConfig(units.Gigabit))
		rxCfg := DefaultNICConfig(units.Gigabit)
		rx := NewNIC(eng, 2, rxCfg)
		fab.Attach(tx)
		fab.Attach(rx)
		var got []int
		rx.SetInterruptHandler(func(q int, _ units.Time) {
			for _, f := range rx.Drain(q) {
				got = append(got, f.Body.(int))
			}
		})
		n := r.Intn(40) + 2
		eng.At(0, func(units.Time) {
			for i := 0; i < n; i++ {
				tx.Send(2, units.Bytes(r.Intn(64*1024)+1), AffHint{}, i)
			}
		})
		eng.RunUntilIdle()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkFrameDelivery(b *testing.B) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 10*units.Microsecond, 100)
	tx := NewNIC(eng, 1, DefaultNICConfig(3*units.Gigabit))
	rx := NewNIC(eng, 2, DefaultNICConfig(3*units.Gigabit))
	fab.Attach(tx)
	fab.Attach(rx)
	rx.SetInterruptHandler(func(q int, _ units.Time) {
		for _, f := range rx.Drain(q) {
			rx.Free(f)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(2, 64*units.KiB, Hint(3), nil)
		if i%64 == 63 {
			eng.RunUntilIdle()
		}
	}
	eng.RunUntilIdle()
}

func BenchmarkHeaderRoundTrip(b *testing.B) {
	opts, _ := Hint(11).options(new([4]byte))
	h := IPv4Header{TotalLen: 1500, TTL: 64, Protocol: 6, Options: opts}
	var got IPv4Header
	for i := 0; i < b.N; i++ {
		buf, err := h.MarshalAppend(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeIPv4(buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMultiQueueRSS(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 100)
	rxCfg := DefaultNICConfig(3 * units.Gigabit)
	rxCfg.RxQueues = 4
	rx := NewNIC(eng, 99, rxCfg)
	fab.Attach(rx)
	if len(rx.rings) != 4 {
		t.Fatalf("queues = %d", len(rx.rings))
	}
	perQueue := map[int]map[NodeID]bool{}
	rx.SetInterruptHandler(func(q int, _ units.Time) {
		for _, f := range rx.Drain(q) {
			if perQueue[q] == nil {
				perQueue[q] = map[NodeID]bool{}
			}
			perQueue[q][f.Src] = true
		}
	})
	for s := 0; s < 8; s++ {
		tx := NewNIC(eng, NodeID(1+s), DefaultNICConfig(units.Gigabit))
		fab.Attach(tx)
		txc := tx
		eng.At(0, func(units.Time) {
			for i := 0; i < 4; i++ {
				txc.Send(99, units.KiB, AffHint{}, nil)
			}
		})
	}
	eng.RunUntilIdle()
	// Every source must map to exactly one queue (flow stability).
	seen := map[NodeID]int{}
	for q, srcs := range perQueue {
		for src := range srcs {
			if prev, dup := seen[src]; dup && prev != q {
				t.Errorf("source %d hit queues %d and %d", src, prev, q)
			}
			seen[src] = q
		}
	}
	if len(seen) != 8 {
		t.Errorf("sources seen = %d, want 8", len(seen))
	}
	if len(perQueue) < 2 {
		t.Errorf("all flows landed on %d queue(s); hashing should spread", len(perQueue))
	}
	for q, r := range rx.rings {
		if len(r) != 0 {
			t.Errorf("queue %d ring residue = %d", q, len(r))
		}
	}
}

func TestNICAccessors(t *testing.T) {
	cfg := DefaultNICConfig(units.Gigabit)
	eng := sim.NewEngine()
	n := NewNIC(eng, 7, cfg)
	if n.IngressBusy() != 0 {
		t.Error("fresh NIC has ingress busy time")
	}
}

func TestFabricAccessors(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, 0, 100)
	nic := NewNIC(eng, 1, DefaultNICConfig(units.Gigabit))
	fab.Attach(nic)
	if fab.IDs() != 100 || fab.NIC(1) != nic || fab.NIC(9) != nil || fab.NIC(-1) != nil || fab.NIC(100) != nil {
		t.Error("fabric accessors wrong")
	}
	if fab.Dropped() != 0 || fab.Corrupted() != 0 {
		t.Error("fresh fabric has traffic")
	}
}

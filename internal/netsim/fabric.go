package netsim

import (
	"fmt"

	"sais/internal/sim"
	"sais/internal/units"
)

// Fabric is the switched network connecting node NICs — the model of
// the cluster's store-and-forward Ethernet switch. A frame leaves the
// sender through its NIC egress serializer, crosses the switch after a
// fixed forwarding latency, and is serialized again by the receiver's
// NIC port, so both the sender's and the receiver's line rates bound
// throughput, exactly as with a real switch.
type Fabric struct {
	eng     *sim.Engine
	latency units.Time
	// nics is indexed by NodeID over the whole id space of the run;
	// nil marks an id attached to another shard's fabric, or to none.
	nics []*NIC
	// loss injects random frame drops for failure testing; nil = none.
	loss func(FrameKey) bool
	// corrupt injects header bit-flips; nil = none.
	corrupt func(*Frame, FrameKey) bool
	// remote routes frames whose destination is not attached here —
	// the sharded-cluster hook; nil = unknown destinations drop.
	remote RemoteForward
	// latencyScale multiplies the forwarding latency when > 0 — the
	// degraded-switch injection hook.
	latencyScale float64
	dropped      uint64
	corrupted    uint64
	// framePool recycles Frame structs (and their Header capacity)
	// between transfers. The engine is single-threaded per run, so a
	// plain LIFO free list is both lock-free and deterministic. Frames
	// are returned explicitly by their final owner — the fabric on a
	// drop, the NIC on a full ring, the consumer after dispatching the
	// body — and never referenced again after FreeFrame.
	framePool []*Frame
}

// NewFabric creates an empty fabric with the given one-way switch
// forwarding latency for node ids 0..ids-1 — the id space of the whole
// run, shared by every shard's fabric. Routing tables are sized once,
// here and at Attach.
func NewFabric(eng *sim.Engine, latency units.Time, ids int) *Fabric {
	if latency < 0 {
		panic("netsim: negative fabric latency")
	}
	if ids < 1 {
		panic(fmt.Sprintf("netsim: fabric id space %d must be positive", ids))
	}
	return &Fabric{eng: eng, latency: latency, nics: make([]*NIC, ids)}
}

// IDs returns the size of the fabric's node-id space: valid ids are
// 0..IDs()-1.
func (f *Fabric) IDs() int { return len(f.nics) }

// Attach connects a NIC to the fabric and sizes its per-destination
// flow sequence table to the id space. Attaching a NIC whose NodeID is
// outside the id space, or two NICs with the same NodeID, panics: node
// identity is the routing key.
func (f *Fabric) Attach(n *NIC) {
	if n.id < 0 || int(n.id) >= len(f.nics) {
		panic(fmt.Sprintf("netsim: node %d outside the fabric's id space [0,%d)", n.id, len(f.nics)))
	}
	if f.nics[n.id] != nil {
		panic(fmt.Sprintf("netsim: duplicate node %d on fabric", n.id))
	}
	n.fab = f
	n.txSeq = make([]uint64, len(f.nics))
	f.nics[n.id] = n
}

// NIC returns the attached NIC for id, or nil (also for an id outside
// the id space).
//
//saisvet:allocfree
func (f *Fabric) NIC(id NodeID) *NIC {
	if id < 0 || int(id) >= len(f.nics) {
		return nil
	}
	return f.nics[id]
}

// Dropped returns frames dropped by injected loss or unknown
// destinations (including ids outside the id space).
func (f *Fabric) Dropped() uint64 { return f.dropped }

// SetLoss installs a frame-drop predicate called per forwarded frame;
// used by failure injection. The predicate receives the frame's
// FrameKey so decisions can be pure functions of frame identity —
// required for shard-layout invariance; predicates that close over
// mutable state are only safe on single-shard fabrics. Pass nil to
// disable.
func (f *Fabric) SetLoss(fn func(FrameKey) bool) { f.loss = fn }

// SetCorruption installs a per-frame header-corruption predicate: a
// selected frame's IP header gets a flipped byte, so the receiver's
// checksum validation rejects it. The predicate sees the frame (so
// tests can target e.g. only data-bearing frames) and its FrameKey
// (see SetLoss for the statelessness requirement). Pass nil to
// disable.
func (f *Fabric) SetCorruption(fn func(*Frame, FrameKey) bool) { f.corrupt = fn }

// Corrupted returns the number of frames whose headers were damaged.
func (f *Fabric) Corrupted() uint64 { return f.corrupted }

// SetLatencyScale scales the switch forwarding latency for frames
// forwarded from now on — the degraded-link injection hook. Scale 1 (or
// 0) restores the configured latency; scale must not be negative.
func (f *Fabric) SetLatencyScale(scale float64) {
	if scale < 0 {
		panic("netsim: negative latency scale")
	}
	f.latencyScale = scale
}

// NewFrame returns a zeroed frame from the pool (retaining recycled
// Header capacity), allocating only when the pool is empty.
//
//saisvet:allocfree
func (f *Fabric) NewFrame() *Frame {
	if n := len(f.framePool); n > 0 {
		fr := f.framePool[n-1]
		f.framePool = f.framePool[:n-1]
		return fr
	}
	//lint:alloc pool growth: a frame and its stage events, once per peak in-flight frame
	fr := &Frame{}
	fr.txDoneFn, fr.arriveFn, fr.rxDoneFn = fr.txDone, fr.arrive, fr.rxDone
	return fr
}

// FreeFrame returns a frame to the pool. Only the frame's single final
// owner may call it; the frame must not be referenced afterwards.
//
//saisvet:allocfree
func (f *Fabric) FreeFrame(fr *Frame) {
	*fr = Frame{
		Header:   fr.Header[:0],
		txDoneFn: fr.txDoneFn, arriveFn: fr.arriveFn, rxDoneFn: fr.rxDoneFn,
	}
	f.framePool = append(f.framePool, fr)
}

// Arrival returns fr's prebound switch-exit event, set to deliver the
// frame through this fabric: local forwarding schedules it, and the
// cross-shard hook schedules it on the destination shard's engine in
// place of a per-frame closure. It must fire on this fabric's engine
// at the frame's delivery time (the sharded executor's mailboxes
// guarantee both).
func (f *Fabric) Arrival(fr *Frame) sim.Event {
	fr.fab = f
	return fr.arriveFn
}

// FrameKey identifies one forwarded frame in a way that is invariant
// to shard layout and execution interleaving: the source node plus
// that source NIC's monotone forward sequence number. Keyed fault
// decisions (loss, corruption) hash this identity instead of drawing
// from a shared stream, so the set of affected frames is a pure
// function of (config, seed) no matter how the cluster is partitioned.
type FrameKey struct {
	Src NodeID
	Seq uint64
}

// Origin returns the engine tie-break class frame deliveries carry:
// the source node shifted out of the zero value reserved for plain
// local events (see sim.AtOrigin).
func (k FrameKey) Origin() uint64 { return uint64(k.Src) + 1 }

// RemoteForward routes a frame whose destination NIC is not attached
// to this fabric. sendAt is the forwarding instant on the source
// engine and deliverAt the delivery time after switch latency; key is
// the frame's identity (its Origin and Seq seed the destination
// engine's tie-break). The hook reports whether the destination
// exists — false drops the frame at the source — and schedules the
// delivery with the destination fabric's Arrival event.
type RemoteForward func(fr *Frame, sendAt, deliverAt units.Time, key FrameKey) bool

// SetRemote installs the cross-shard routing hook. Pass nil to restore
// drop-on-unknown-destination behaviour.
func (f *Fabric) SetRemote(fn RemoteForward) { f.remote = fn }

// arrive hands a frame leaving the switch to its destination NIC. Loss
// and corruption were already decided at the source; only destination
// lookup happens here.
//
//saisvet:allocfree
func (f *Fabric) arrive(fr *Frame) {
	dst := f.NIC(fr.Dst)
	if dst == nil {
		// The partition map and the NIC set disagree — count it as a
		// drop rather than leak the frame.
		f.dropped++
		f.FreeFrame(fr)
		return
	}
	dst.receive(fr)
}

// forward is called by a NIC when egress serialization of a frame
// completes.
//
//saisvet:allocfree
func (f *Fabric) forward(fr *Frame) {
	key := FrameKey{Src: fr.Src}
	fr.tx.fwdSeq++
	key.Seq = fr.tx.fwdSeq
	//lint:alloc fault-injection predicate: keyed hash, installed only under a fault plan
	if f.loss != nil && f.loss(key) {
		f.dropped++
		f.FreeFrame(fr)
		return
	}
	//lint:alloc fault-injection predicate: keyed hash, installed only under a fault plan
	if f.corrupt != nil && f.corrupt(fr, key) && len(fr.Header) > 12 {
		fr.Header[12] ^= 0xff // source-address byte: checksum now fails
		f.corrupted++
	}
	latency := f.latency
	if f.latencyScale > 0 {
		scaled := float64(latency) * f.latencyScale
		// Clamp instead of overflowing into a negative delay.
		if scaled > float64(units.Forever/2) {
			scaled = float64(units.Forever / 2)
		}
		latency = units.Time(scaled)
	}
	if f.NIC(fr.Dst) == nil {
		now := f.eng.Now()
		// An id outside the space names no node on any shard.
		inSpace := fr.Dst >= 0 && int(fr.Dst) < len(f.nics)
		//lint:alloc cross-shard hook: its allocations belong to the composing executor
		if inSpace && f.remote != nil && f.remote(fr, now, now+latency, key) {
			return
		}
		f.dropped++
		f.FreeFrame(fr)
		return
	}
	// Origin-tagged so two sources' frames colliding on one delivery
	// instant order by source identity, not by forwarding call order —
	// the tie-break that survives sharding (DESIGN.md §12).
	f.eng.AtOrigin(f.eng.Now()+latency, key.Origin(), f.Arrival(fr))
}

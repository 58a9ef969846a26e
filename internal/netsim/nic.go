package netsim

import (
	"fmt"

	"sais/internal/sim"
	"sais/internal/units"
)

// NodeID identifies a node (client or server) attached to the fabric.
type NodeID int

// Frame is one transfer unit on the wire: one whole message, such as a
// strip. Per-MTU header overhead is accounted arithmetically, and the
// NIC raises one interrupt per frame unless coalescing is configured,
// matching hardware interrupt coalescing of a strip's packets.
type Frame struct {
	Src, Dst NodeID
	Payload  units.Bytes // upper-layer payload bytes
	// Header is the marshaled IPv4 header, the one carrier of the
	// aff_core_id hint: receivers recover it with ReadHint/ParseHint.
	Header []byte
	Body   any // opaque upper-layer descriptor (strip, request)
	// FlowSeq is the sender-local per-destination sequence number,
	// stamped at frame assembly. Receivers compare FlowSeq within one
	// (source, stream) to detect out-of-order completion — the metric
	// behind the Flow Director reordering pathology. Like fwdSeq it
	// advances only with the sender's own progress, so it is identical
	// across shard layouts.
	FlowSeq uint64

	// Lifecycle stamps for span tracing: when the frame entered the
	// sender's egress queue and when it landed in the receiver's rx
	// ring. Two plain stores per frame; consumed only when a SpanLog is
	// attached downstream.
	SentAt      units.Time
	DeliveredAt units.Time

	// Datapath state, set as the frame moves: its wire size (fixed by
	// the sending NIC), the sending NIC, the fabric that delivers it
	// (the destination shard's when it crosses shards) and the
	// receiving NIC. FreeFrame clears all four.
	wire units.Bytes
	tx   *NIC
	fab  *Fabric
	rx   *NIC
	// The frame's stage events — egress serialization done, switch
	// exit, ingress serialization done — bound once when the pool first
	// allocates the frame and kept across reuse, so moving a frame
	// through the datapath allocates nothing.
	txDoneFn, arriveFn, rxDoneFn sim.Event
}

// txDone hands the serialized frame to the switch.
//
//saisvet:allocfree
func (f *Frame) txDone(units.Time) { f.tx.fab.forward(f) }

// arrive delivers the frame at the far side of the switch.
//
//saisvet:allocfree
func (f *Frame) arrive(units.Time) { f.fab.arrive(f) }

// rxDone lands the frame in the receiving NIC's rx ring.
//
//saisvet:allocfree
func (f *Frame) rxDone(now units.Time) { f.rx.deliver(f, now) }

// WireBytes returns the bytes the frame occupies on the wire given the
// per-packet overhead and MTU of the transmitting NIC.
func wireBytes(payload units.Bytes, mtu, overhead units.Bytes) units.Bytes {
	if payload <= 0 {
		return overhead
	}
	packets := (payload + mtu - 1) / mtu
	return payload + packets*overhead
}

// BondMode selects how frames spread over a multi-port NIC.
type BondMode int

// Bonding modes, mirroring the Linux bonding driver's balance-rr and
// 802.3ad (flow-hash) behaviours.
const (
	BondRoundRobin BondMode = iota // spray frames across ports
	BondFlowHash                   // pin each peer's traffic to one port
)

// NICConfig sizes one network interface.
type NICConfig struct {
	Rate     units.Rate  // per-port serialization rate (e.g. 1 Gbit)
	Ports    int         // bonded ports; 0/1 = single port
	Bond     BondMode    // how frames spread over the ports
	MTU      units.Bytes // payload bytes per packet
	Overhead units.Bytes // per-packet header bytes (Ethernet+IP+TCP)
	RingSize int         // rx descriptor ring capacity (per queue), in frames
	// RxQueues is the number of MSI-X receive queues; incoming frames
	// are flow-hashed over them and each queue raises its own interrupt
	// (hardware RSS). 0/1 = a single queue.
	RxQueues int
	// Coalescing: an interrupt fires when CoalesceFrames frames are
	// pending or CoalesceDelay after the first pending frame, whichever
	// comes first. CoalesceFrames <= 1 with zero delay means one
	// interrupt per frame.
	CoalesceFrames int
	CoalesceDelay  units.Time
}

// DefaultNICConfig returns a BCM5715C-like configuration at the given
// rate: 1500-byte MTU, 78 bytes of Ethernet+IP+TCP overhead per packet,
// a 512-descriptor ring, and per-message interrupts.
func DefaultNICConfig(rate units.Rate) NICConfig {
	return NICConfig{
		Rate:           rate,
		MTU:            1500,
		Overhead:       78,
		RingSize:       512,
		CoalesceFrames: 1,
	}
}

// Validate checks the configuration NewNIC would build from.
func (c NICConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("netsim: NIC rate %v must be positive", c.Rate)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("netsim: MTU %d must be positive", c.MTU)
	}
	if c.Overhead < 0 {
		return fmt.Errorf("netsim: negative overhead")
	}
	if c.RingSize <= 0 {
		return fmt.Errorf("netsim: ring size %d must be positive", c.RingSize)
	}
	if c.CoalesceFrames < 1 {
		return fmt.Errorf("netsim: coalesce frames %d must be >= 1", c.CoalesceFrames)
	}
	if c.CoalesceDelay < 0 {
		return fmt.Errorf("netsim: negative coalesce delay")
	}
	if c.Ports < 0 {
		return fmt.Errorf("netsim: negative port count")
	}
	if c.Bond != BondRoundRobin && c.Bond != BondFlowHash {
		return fmt.Errorf("netsim: unknown bond mode %d", c.Bond)
	}
	if c.RxQueues < 0 {
		return fmt.Errorf("netsim: negative rx queue count")
	}
	return nil
}

// rxQueues returns the effective receive-queue count.
func (c NICConfig) rxQueues() int {
	if c.RxQueues < 1 {
		return 1
	}
	return c.RxQueues
}

// ports returns the effective port count.
func (c NICConfig) ports() int {
	if c.Ports < 1 {
		return 1
	}
	return c.Ports
}

// NICStats counts traffic through one NIC.
type NICStats struct {
	TxFrames   uint64
	TxWire     units.Bytes // wire bytes including per-packet overhead
	TxPayload  units.Bytes
	RxFrames   uint64
	RxPayload  units.Bytes
	RingDrops  uint64 // frames lost to a full rx ring
	Interrupts uint64
}

// NIC is one node's network interface: an egress serializer, an ingress
// serializer (its half of the switch port), a receive ring, and an
// interrupt line.
type NIC struct {
	id      NodeID
	cfg     NICConfig
	eng     *sim.Engine
	fab     *Fabric
	egress  []*sim.Server // one serializer per bonded port
	ingress []*sim.Server
	txNext  int // round-robin bonding state
	rxNext  int
	// fwdSeq counts frames this NIC has handed to the switch — the
	// per-source sequence in FrameKey. It advances with the source
	// node's own progress only, so it is identical across shard
	// layouts.
	fwdSeq uint64
	// txSeq numbers outbound frames per destination for Frame.FlowSeq,
	// indexed by NodeID; Attach sizes it to the fabric's id space.
	txSeq []uint64
	// Per-receive-queue state: descriptor ring and coalescing.
	rings      [][]*Frame
	pending    []int
	coalesceTm []sim.Timer
	drainBuf   []*Frame // reused backing store for Drain
	stats      NICStats

	raiseQueue func(q int, now units.Time) // the per-queue interrupt line

	// svcScale, when set, multiplies every serialization cost by a
	// load-dependent factor sampled at dispatch time — the hybrid
	// engine's analytic background traffic contending for this NIC's
	// ports (DESIGN.md §14). nil means the classic fixed-cost path.
	//saisvet:nilhook
	svcScale func(now units.Time) float64

	nextIPID uint16
	optBuf   [4]byte // scratch for the aff_core_id options field
}

// NewNIC builds a NIC for node id. It panics on invalid configuration.
func NewNIC(eng *sim.Engine, id NodeID, cfg NICConfig) *NIC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &NIC{id: id, cfg: cfg, eng: eng}
	for p := 0; p < cfg.ports(); p++ {
		n.egress = append(n.egress, sim.NewServer(eng))
		n.ingress = append(n.ingress, sim.NewServer(eng))
	}
	q := cfg.rxQueues()
	n.rings = make([][]*Frame, q)
	n.pending = make([]int, q)
	n.coalesceTm = make([]sim.Timer, q)
	return n
}

// queueFor flow-hashes a source onto a receive queue.
func (n *NIC) queueFor(src NodeID) int {
	if len(n.rings) == 1 {
		return 0
	}
	x := uint64(src)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(len(n.rings)))
}

// pickPort selects the bonded port for traffic to/from peer.
func (n *NIC) pickPort(servers []*sim.Server, peer NodeID, rr *int) *sim.Server {
	if len(servers) == 1 {
		return servers[0]
	}
	switch n.cfg.Bond {
	case BondFlowHash:
		x := uint64(peer)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		return servers[x%uint64(len(servers))]
	default: // BondRoundRobin
		s := servers[*rr%len(servers)]
		*rr++
		return s
	}
}

// Stats returns a copy of the traffic counters.
func (n *NIC) Stats() NICStats { return n.stats }

// SetInterruptHandler installs the interrupt line callback: fn(q, now)
// runs when receive queue q raises its interrupt, and the handler
// drains that queue with Drain(q). Each MSI-X queue raises its own
// line; a single-queue NIC always raises queue 0. In the full client
// model this is the MSI raise into the I/O APIC.
func (n *NIC) SetInterruptHandler(fn func(q int, now units.Time)) { n.raiseQueue = fn }

// SetServiceScale installs a load-dependent service-time multiplier:
// every tx/rx serialization cost is scaled by fn(dispatchTime). The
// hybrid workload engine uses it to let analytic background flows slow
// this NIC without materializing their frames. fn must be ≥ 1,
// deterministic, and depend only on this node's state (layout
// invariance). nil restores the fixed-cost path.
func (n *NIC) SetServiceScale(fn func(now units.Time) float64) { n.svcScale = fn }

// serialize submits one wire transfer to a port serializer, applying
// the service-scale hook when installed. The classic path (no hook)
// stays on the fixed-cost Submit so its event pattern — and therefore
// every byte of classic-run output — is untouched.
//
//saisvet:allocfree
func (n *NIC) serialize(port *sim.Server, wire units.Bytes, done sim.Event) {
	base := n.cfg.Rate.TimeFor(wire)
	if n.svcScale == nil {
		port.Submit(base, done)
		return
	}
	//lint:alloc hybrid service-scale path: one cost closure per scaled transfer
	port.SubmitFunc(func(start units.Time) units.Time {
		return units.Time(float64(base) * n.svcScale(start))
	}, done)
}

// buildHeader marshals an IPv4 header carrying the hint into buf
// (reusing a recycled frame's Header capacity); the simulator treats
// the bytes as the authoritative carrier of aff_core_id (SrcParser
// re-parses them on receive).
func (n *NIC) buildHeader(buf []byte, payload units.Bytes, hint AffHint) []byte {
	opts, err := hint.options(&n.optBuf)
	if err != nil {
		panic(err) // hint cores are validated upstream
	}
	total := payload
	if max := units.Bytes(65535 - 60); total > max {
		total = max // header field is 16-bit; size accounting uses Payload
	}
	h := IPv4Header{
		ID:       n.nextIPID,
		TTL:      64,
		Protocol: 6, // TCP
		SrcIP:    0x0a000000 | uint32(n.id),
		DstIP:    0x0a000000,
		Options:  opts,
	}
	h.TotalLen = uint16(int(total) + h.HeaderLen())
	n.nextIPID++
	b, err := h.MarshalAppend(buf)
	if err != nil {
		panic(err)
	}
	return b
}

// Send transmits payload bytes to dst with the given hint and opaque
// descriptor as one frame, serialized at the NIC rate and handed to
// the fabric.
func (n *NIC) Send(dst NodeID, payload units.Bytes, hint AffHint, body any) {
	if n.fab == nil {
		panic("netsim: NIC not attached to a fabric")
	}
	if payload < 0 {
		panic("netsim: negative payload")
	}
	n.sendFrame(n.newFrame(dst, payload, hint, body))
}

// newFrame assembles an outbound frame from the fabric pool.
func (n *NIC) newFrame(dst NodeID, payload units.Bytes, hint AffHint, body any) *Frame {
	f := n.fab.NewFrame()
	f.Src, f.Dst, f.Payload, f.Body = n.id, dst, payload, body
	f.Header = n.buildHeader(f.Header[:0], payload, hint)
	f.SentAt = n.eng.Now()
	f.FlowSeq = n.nextFlowSeq(dst)
	return f
}

// nextFlowSeq returns and advances the flow sequence toward dst. A
// destination outside the id space gets 0 and advances nothing: the
// fabric drops its frames at forwarding.
//
//saisvet:allocfree
func (n *NIC) nextFlowSeq(dst NodeID) uint64 {
	if dst < 0 || int(dst) >= len(n.txSeq) {
		return 0
	}
	seq := n.txSeq[dst]
	n.txSeq[dst]++
	return seq
}

// Free returns a consumed frame to the fabric pool. The NIC driver's
// rx loop calls it once the frame's body has been dispatched; the
// frame must not be referenced afterwards. A nil fabric (unattached
// NIC) or nil frame is a no-op.
func (n *NIC) Free(f *Frame) {
	if n.fab != nil && f != nil {
		n.fab.FreeFrame(f)
	}
}

//saisvet:allocfree
func (n *NIC) sendFrame(f *Frame) {
	f.wire = wireBytes(f.Payload, n.cfg.MTU, n.cfg.Overhead)
	f.tx = n
	n.stats.TxFrames++
	n.stats.TxWire += f.wire
	n.stats.TxPayload += f.Payload
	port := n.pickPort(n.egress, f.Dst, &n.txNext)
	n.serialize(port, f.wire, f.txDoneFn)
}

// receive is called by the fabric once the frame has crossed the switch;
// the ingress server models this NIC's port serialization.
//
//saisvet:allocfree
func (n *NIC) receive(f *Frame) {
	f.rx = n
	port := n.pickPort(n.ingress, f.Src, &n.rxNext)
	n.serialize(port, f.wire, f.rxDoneFn)
}

//saisvet:allocfree
func (n *NIC) deliver(f *Frame, now units.Time) {
	q := n.queueFor(f.Src)
	if len(n.rings[q]) >= n.cfg.RingSize {
		n.stats.RingDrops++
		n.fab.FreeFrame(f)
		return
	}
	f.DeliveredAt = now
	n.rings[q] = append(n.rings[q], f)
	n.stats.RxFrames++
	n.stats.RxPayload += f.Payload
	n.pending[q]++
	if n.pending[q] >= n.cfg.CoalesceFrames {
		n.fire(q, now)
		return
	}
	if !n.coalesceTm[q].Pending() {
		//lint:alloc coalescing timer: armed only when CoalesceFrames > 1, once per coalesced batch
		n.coalesceTm[q] = n.eng.After(n.cfg.CoalesceDelay, func(at units.Time) {
			n.fire(q, at)
		})
	}
}

//saisvet:allocfree
func (n *NIC) fire(q int, now units.Time) {
	if n.pending[q] == 0 {
		return
	}
	n.coalesceTm[q].Cancel()
	n.pending[q] = 0
	n.stats.Interrupts++
	if n.raiseQueue != nil {
		//lint:alloc interrupt-line callback: the handler's allocations belong to its owner's budget
		n.raiseQueue(q, now)
	}
}

// Drain removes and returns the frames of rx queue q — the NIC driver's
// rx loop for the queue whose interrupt fired. Parsing the hint out of
// the header bytes (the SrcParser step) is the caller's job via
// ParseHint. The returned slice is reused: it is valid only until the
// next Drain call on this NIC.
func (n *NIC) Drain(q int) []*Frame {
	out := append(n.drainBuf[:0], n.rings[q]...)
	n.rings[q] = n.rings[q][:0]
	n.pending[q] = 0
	n.drainBuf = out
	return out
}

// ParseHint recovers the affinity hint from the frame's marshaled IPv4
// header — the client-side SrcParser. It returns no hint for frames
// with unparseable headers rather than failing: the driver must
// tolerate any traffic.
func ParseHint(f *Frame) AffHint {
	hint, _ := ReadHint(f)
	return hint
}

// ReadHint validates the frame's IPv4 header and recovers the affinity
// hint from it in one decode, without allocating: the NIC driver's
// header check and SrcParser step together. A header that fails
// validation yields the decode error and no hint.
func ReadHint(f *Frame) (AffHint, error) {
	var h IPv4Header
	if _, err := decodeIPv4(f.Header, &h); err != nil {
		return AffHint{}, err
	}
	return ParseOptions(h.Options), nil
}

// IngressBusy returns the cumulative busy time of the receive-side
// serializers, summed over bonded ports.
func (n *NIC) IngressBusy() units.Time {
	var t units.Time
	for _, p := range n.ingress {
		t += p.BusyTime()
	}
	return t
}

package client

import (
	"testing"

	"sais/internal/deque"
	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/rng"
)

// TestReadHeaderAllocFree checks the driver's single header check and
// hint parse: a valid hinted header yields its hint, a corrupted one is
// dropped and counted, and with tracing off neither allocates.
func TestReadHeaderAllocFree(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 1)
	op, _ := netsim.EncodeAffOption(5)
	opts := []byte{op, 0, 0, 0} // the option, then EOL padding
	hdr, err := (&netsim.IPv4Header{TotalLen: 1500, TTL: 64, Protocol: 6, Options: opts}).MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &netsim.Frame{Src: 100, Header: hdr}
	var hint netsim.AffHint
	var ok bool
	if allocs := testing.AllocsPerRun(100, func() { hint, ok = r.node.readHeader(f) }); allocs != 0 {
		t.Errorf("readHeader allocates %v per frame, want 0", allocs)
	}
	if !ok || hint != netsim.Hint(5) {
		t.Fatalf("readHeader = %v, %v; want aff_core=5, true", hint, ok)
	}

	f.Header[12] ^= 0xff
	drops := r.node.Stats().HeaderDrops
	if allocs := testing.AllocsPerRun(100, func() { hint, ok = r.node.readHeader(f) }); allocs != 0 {
		t.Errorf("readHeader allocates %v per dropped frame, want 0", allocs)
	}
	if ok || hint.Valid {
		t.Fatalf("corrupted header accepted: %v, %v", hint, ok)
	}
	if got := r.node.Stats().HeaderDrops - drops; got != 101 {
		t.Errorf("header drops = %d, want 101", got)
	}
}

// TestFrameQueueFIFO checks a core's frame queue against a slice model
// under random push/pop traffic, and that a queue whose depth stays
// bounded stops allocating.
func TestFrameQueueFIFO(t *testing.T) {
	r := rng.New(rng.Derive(0xf4a3e, 0))
	frames := make([]*netsim.Frame, 16)
	for i := range frames {
		frames[i] = &netsim.Frame{FlowSeq: uint64(i)}
	}
	var q deque.Deque[*netsim.Frame]
	var model []*netsim.Frame
	for step := 0; step < 20000; step++ {
		if len(model) < 12 && r.Bool(0.5) {
			f := frames[step%len(frames)]
			q.PushBack(f)
			model = append(model, f)
			continue
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len %d with %d queued", step, q.Len(), len(model))
		}
		if len(model) > 0 {
			if f := q.PopFront(); f != model[0] {
				t.Fatalf("step %d: popped frame %d, want %d", step, f.FlowSeq, model[0].FlowSeq)
			}
			model = model[1:]
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 12; i++ {
			q.PushBack(frames[i])
		}
		for i := 0; i < 12; i++ {
			q.PopFront()
		}
	}); allocs != 0 {
		t.Errorf("steady push/pop allocates %v, want 0", allocs)
	}
}

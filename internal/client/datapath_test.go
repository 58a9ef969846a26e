package client

import (
	"testing"

	"sais/internal/irqsched"
	"sais/internal/netsim"
	"sais/internal/rng"
)

// TestReadHeaderAllocFree checks the driver's single header check and
// hint parse: a valid hinted header yields its hint, a corrupted one is
// dropped and counted, and with tracing off neither allocates.
func TestReadHeaderAllocFree(t *testing.T) {
	r := newRig(t, irqsched.PolicySourceAware, 1)
	opts, _ := netsim.Hint(5).OptionsBytes()
	hdr, err := (&netsim.IPv4Header{TotalLen: 1500, TTL: 64, Protocol: 6, Options: opts}).Marshal()
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
// bounded stops growing its backing array.
func TestFrameQueueFIFO(t *testing.T) {
	r := rng.New(rng.Derive(0xf4a3e, 0))
	frames := make([]*netsim.Frame, 16)
	for i := range frames {
		frames[i] = &netsim.Frame{FlowSeq: uint64(i)}
	}
	var q frameQueue
	var model []*netsim.Frame
	for step := 0; step < 20000; step++ {
		if len(model) < 12 && r.Bool(0.5) {
			f := frames[step%len(frames)]
			q.push(f)
			model = append(model, f)
			continue
		}
		f, ok := q.pop()
		if ok != (len(model) > 0) {
			t.Fatalf("step %d: pop ok=%v with %d queued", step, ok, len(model))
		}
		if ok {
			if f != model[0] {
				t.Fatalf("step %d: popped frame %d, want %d", step, f.FlowSeq, model[0].FlowSeq)
			}
			model = model[1:]
		}
	}
	if c := cap(q.buf); c > 32 {
		t.Errorf("backing array grew to %d for a queue never deeper than 12", c)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 12; i++ {
			q.push(frames[i])
		}
		for i := 0; i < 12; i++ {
			q.pop()
		}
	}); allocs != 0 {
		t.Errorf("steady push/pop allocates %v, want 0", allocs)
	}
}

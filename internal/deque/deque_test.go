package deque

import (
	"testing"

	"sais/internal/rng"
)

// TestDequeMatchesSliceModel drives random pushes at both ends and
// pops against a slice model, across growth and wrap-around. With the
// depth held under a bound the ring must stop growing, every vacated
// slot must be zeroed, and a warmed push/pop cycle must not allocate.
func TestDequeMatchesSliceModel(t *testing.T) {
	r := rng.New(rng.Derive(0xdec, 0))
	var d Deque[*int]
	var model []*int
	vals := make([]*int, 64)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
	}
	check := func(phase string, step int) {
		if d.Len() != len(model) {
			t.Fatalf("%s step %d: Len %d, want %d", phase, step, d.Len(), len(model))
		}
		live := 0
		for _, p := range d.buf {
			if p != nil {
				live++
			}
		}
		if live != len(model) {
			t.Fatalf("%s step %d: %d non-zero slots for %d queued values", phase, step, live, len(model))
		}
	}
	run := func(phase string, steps, maxDepth int) {
		for step := 0; step < steps; step++ {
			switch x := r.Intn(5); {
			case x < 3 && len(model) < maxDepth:
				v := vals[step%len(vals)]
				if x < 2 {
					d.PushBack(v)
					model = append(model, v)
				} else {
					d.PushFront(v)
					model = append([]*int{v}, model...)
				}
			case len(model) > 0:
				if got := d.PopFront(); got != model[0] {
					t.Fatalf("%s step %d: popped %d, want %d", phase, step, *got, *model[0])
				}
				model = model[1:]
			}
			check(phase, step)
		}
	}

	drain := func(phase string) {
		for len(model) > 0 {
			d.PopFront()
			model = model[1:]
		}
		check(phase, 0)
	}
	// Unbounded: the ring grows through several doublings.
	run("grow", 20000, 1<<30)
	drain("grow drain")

	// Bounded: a fresh deque never deeper than 12 settles at 16 slots.
	d = Deque[*int]{}
	run("bounded", 20000, 12)
	if c := len(d.buf); c != 16 {
		t.Errorf("ring grew to %d slots for a queue never deeper than 12, want 16", c)
	}
	drain("bounded drain")

	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			d.PushBack(vals[i])
			d.PushFront(vals[i])
		}
		for i := 0; i < 8; i++ {
			d.PopFront()
		}
	}); allocs != 0 {
		t.Errorf("steady push/pop allocates %v, want 0", allocs)
	}
}

func TestPopFrontEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PopFront on an empty deque did not panic")
		}
	}()
	var d Deque[int]
	d.PopFront()
}

package deque

import (
	"testing"

	"sais/internal/rng"
)

// TestDequeMatchesSliceModel drives random pushes at both ends, pops,
// and At and RemoveAt at random indices against a slice model, across
// growth and wrap-around. With the depth held under a bound the ring
// must stop growing, every vacated slot must be zeroed, and a warmed
// push/pop/remove cycle must not allocate.
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
	// wrappedRemovals counts RemoveAt calls whose shifted prefix
	// crossed the end of the ring.
	wrappedRemovals := 0
	run := func(phase string, steps, maxDepth int) {
		for step := 0; step < steps; step++ {
			switch x := r.Intn(8); {
			case x < 4 && len(model) < maxDepth:
				v := vals[step%len(vals)]
				if x < 3 {
					d.PushBack(v)
					model = append(model, v)
				} else {
					d.PushFront(v)
					model = append([]*int{v}, model...)
				}
			case x == 6 && len(model) > 0:
				i := r.Intn(len(model))
				if got := d.At(i); got != model[i] {
					t.Fatalf("%s step %d: At(%d) = %d, want %d", phase, step, i, *got, *model[i])
				}
			case x == 7 && len(model) > 0:
				i := r.Intn(len(model))
				if d.head+i >= len(d.buf) {
					wrappedRemovals++
				}
				if got := d.RemoveAt(i); got != model[i] {
					t.Fatalf("%s step %d: RemoveAt(%d) = %d, want %d", phase, step, i, *got, *model[i])
				}
				model = append(model[:i:i], model[i+1:]...)
			case len(model) > 0:
				if got := d.PopFront(); got != model[0] {
					t.Fatalf("%s step %d: popped %d, want %d", phase, step, *got, *model[0])
				}
				model = model[1:]
			}
			check(phase, step)
		}
		for i := range model {
			if got := d.At(i); got != model[i] {
				t.Fatalf("%s end: At(%d) = %d, want %d", phase, i, *got, *model[i])
			}
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

	if wrappedRemovals == 0 {
		t.Error("no RemoveAt shifted its prefix across the end of the ring")
	}

	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			d.PushBack(vals[i])
			d.PushFront(vals[i])
		}
		d.RemoveAt(5)
		for i := 0; i < 7; i++ {
			d.PopFront()
		}
	}); allocs != 0 {
		t.Errorf("steady push/pop/remove allocates %v, want 0", allocs)
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

func TestIndexOutOfRangePanics(t *testing.T) {
	var d Deque[int]
	d.PushBack(1)
	d.PushBack(2)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"At(-1)", func() { d.At(-1) }},
		{"At(Len)", func() { d.At(2) }},
		{"RemoveAt(-1)", func() { d.RemoveAt(-1) }},
		{"RemoveAt(Len)", func() { d.RemoveAt(2) }},
		{"RemoveAt on empty", func() { var e Deque[int]; e.RemoveAt(0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
	if d.Len() != 2 || d.At(0) != 1 || d.At(1) != 2 {
		t.Errorf("a panicking call changed the deque: Len %d", d.Len())
	}
}

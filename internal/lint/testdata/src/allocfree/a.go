// Fixture for the allocfree analyzer: every allocating construct the
// hot-path contract forbids, the evidence patterns it accepts, the
// intra-package call-graph propagation, and the //lint:alloc hatch.
package main

import (
	"cmp"
	"math"
	"slices"
)

type ring struct {
	buf  []int
	free []int
}

//saisvet:allocfree
func literals() {
	s := []int{1, 2}   // want `slice literal .heap-allocates its backing array. in //saisvet:allocfree literals`
	m := map[int]int{} // want `map literal in //saisvet:allocfree literals`
	_, _ = s, m
}

//saisvet:allocfree
func escapes() *ring {
	return &ring{} // want `&composite literal .escaping heap allocation. in //saisvet:allocfree escapes`
}

//saisvet:allocfree
func builtins(n int) []int {
	return make([]int, n) // want `make in //saisvet:allocfree builtins`
}

//saisvet:allocfree
func spawn(fn func()) {
	go fn() // want `goroutine spawn .stack . closure allocation. in //saisvet:allocfree spawn`
}

//saisvet:allocfree
func capture(x int) func() int {
	return func() int { return x } // want `closure capturing x by reference in //saisvet:allocfree capture`
}

//saisvet:allocfree
func concat(a, b string) string {
	return a + b // want `string concatenation in //saisvet:allocfree concat`
}

//saisvet:allocfree
func box(v int) any {
	return any(v) // want `conversion of non-pointer int to interface any .boxes the value. in //saisvet:allocfree box`
}

//saisvet:allocfree
func growLocal(x int) []int {
	out := helperDirty()  // want `call to sais/internal/sim.helperDirty`
	return append(out, x) // want `append without preallocated-capacity evidence`
}

// cleanHotPath exercises every accepted evidence pattern: field-backed
// append (persistent ring buffer), append-to-self, parameter-backed
// append, whitelisted math and builtins, panic-only failure paths, and
// calls to annotated or provably clean siblings.
//
//saisvet:allocfree
func (r *ring) cleanHotPath(scratch []int, x int) float64 {
	if x < 0 {
		panic("negative index in hot path") // failure path: exempt
	}
	r.buf = append(r.buf, x)
	live := r.free[:0]
	live = append(live, x)
	r.free = live
	scratch = append(scratch, x)
	_ = len(scratch)
	concat("", "") // annotated callee: contract enforced at its own definition
	return math.Sqrt(float64(helperClean(x)))
}

// helperClean is unannotated but provably allocation-free, so annotated
// callers may use it.
func helperClean(x int) int { return x * 2 }

// helperDirty allocates; unannotated, so no finding here — but the
// proof status propagates to annotated callers.
func helperDirty() []int { return []int{1} }

//saisvet:allocfree
func callsDirty() {
	helperDirty() // want `call to sais/internal/sim.helperDirty, which is not allocation-free .slice literal`
}

//saisvet:allocfree
func dynamic(fn func() int) int {
	return fn() // want `dynamic call .func value or interface method.`
}

//saisvet:allocfree
func waived(n int) []int {
	//lint:alloc one-time setup buffer, amortized over the run
	return make([]int, n)
}

// sortInPlace uses the trusted in-place sort and comparison; cloning is
// still an allocation.
//
//saisvet:allocfree
func sortInPlace(xs []int) []int {
	slices.SortFunc(xs, cmp.Compare[int])
	return slices.Clone(xs) // want `call to slices.Clone, which is not allocation-free`
}

// stack is generic: calls through an instantiation resolve to the
// generic declaration, where the annotation and proof status live.
type stack[T any] struct{ items []T }

//saisvet:allocfree
func (s *stack[T]) push(v T) { s.items = append(s.items, v) }

//saisvet:allocfree
func (s *stack[T]) reset(n int) {
	s.items = make([]T, n) // want `make in //saisvet:allocfree reset`
}

// grow allocates; unannotated, its proof status reaches callers
// through every instantiation.
func (s *stack[T]) grow(n int) { s.items = make([]T, 0, n) }

//saisvet:allocfree
func useGeneric(s *stack[int]) {
	s.push(1)
	s.reset(0)
	s.grow(8) // want `call to \(\*sais/internal/sim.stack\[T\]\).grow, which is not allocation-free .make`
}

func main() {}

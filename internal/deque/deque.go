// Package deque provides the FIFO used by every simulated hardware
// queue: a core's run queue, a local APIC's in-flight vectors, a FIFO
// server's completion callbacks, a client core's steered frames, a
// Flow Director's eviction order, and a disk's elevator queue, which
// dispatches from anywhere in its first few entries through At and
// RemoveAt.
package deque

// Deque is a ring-buffer double-ended queue of values. The zero value
// is an empty deque. The capacity is zero or a power of two and only
// grows, doubling when a push finds the ring full, so a queue whose
// depth stays bounded stops allocating once it has reached its peak.
// Popped slots are zeroed, so the ring keeps no reference to a value
// it no longer holds.
type Deque[T any] struct {
	buf  []T
	head int // index of the front value
	n    int // number of queued values
}

// Len returns the number of queued values.
func (d *Deque[T]) Len() int { return d.n }

// PushBack appends v at the back.
//
//saisvet:allocfree
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		//lint:alloc amortized ring growth: doubles only when the queue exceeds its peak depth
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PushFront inserts v at the front.
//
//saisvet:allocfree
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		//lint:alloc amortized ring growth: doubles only when the queue exceeds its peak depth
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front value; the deque must not be
// empty.
//
//saisvet:allocfree
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("deque: PopFront on an empty deque")
	}
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// At returns the i-th value from the front; i must be in [0, Len()).
func (d *Deque[T]) At(i int) T {
	if i < 0 || i >= d.n {
		panic("deque: At index out of range")
	}
	return d.buf[(d.head+i)&(len(d.buf)-1)]
}

// RemoveAt removes and returns the i-th value from the front, keeping
// the order of the rest; i must be in [0, Len()). It shifts the i
// values ahead of the removed one back by a slot and pops the front,
// so it costs O(i) whatever the depth.
//
//saisvet:allocfree
func (d *Deque[T]) RemoveAt(i int) T {
	if i < 0 || i >= d.n {
		panic("deque: RemoveAt index out of range")
	}
	mask := len(d.buf) - 1
	v := d.buf[(d.head+i)&mask]
	for j := i; j > 0; j-- {
		d.buf[(d.head+j)&mask] = d.buf[(d.head+j-1)&mask]
	}
	d.PopFront()
	return v
}

// grow doubles the full ring (minimum 8 slots), unwrapping it so the
// front value lands at index 0.
func (d *Deque[T]) grow() {
	buf := make([]T, max(8, 2*len(d.buf)))
	k := copy(buf, d.buf[d.head:])
	copy(buf[k:], d.buf[:d.head])
	d.buf, d.head = buf, 0
}

package main

import (
	"container/heap"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose speed
// drifts by a third or more within minutes as neighbours load the
// physical cores. A fixed kernel timed between repetitions measures that
// speed, and each repetition's wall time is scaled by it to the speed of
// a reference host (norm_wall_s). The kernel shares no code with the
// simulator, so a change to the simulator cannot move it.

// calReference is the kernel's time on the reference host, the 2-vCPU
// AMD EPYC guest the benchmark was written on. norm_wall_s reads in
// seconds on a host that runs the kernel in this time.
const calReference = 20 * time.Millisecond

// Sizes of the kernel's two halves, about 10 ms each on the reference
// host.
const (
	calNodes  = 4096  // per-node counters the event half updates
	calQueued = 1024  // events pending in its heap
	calEvents = 60000 // events it fires
	calDepth  = 15    // depth of the trees the tree half builds
	calTrees  = 3     // trees it builds and walks twice each
)

// calSink keeps the kernel's results alive.
var calSink uint64

// calibrate runs the kernel and returns its wall time. Its two halves
// are the two kinds of work the simulator does: an event loop (a heap of
// heap-allocated events, per-node state in a map) and building and
// walking a pointer structure. Timing both tracks the host's slowdown of
// the simulator better than either alone.
func calibrate() time.Duration {
	t0 := time.Now()
	calSink += calEventLoop() + calTreeWalk()
	return time.Since(t0)
}

type calEvent struct {
	at   uint64
	node int32
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func calEventLoop() uint64 {
	state := make(map[int32]uint64, calNodes)
	q := make(calQueue, 0, calQueued)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < calQueued; i++ {
		x = xorshift(x)
		heap.Push(&q, &calEvent{at: x % 1_000_000, node: int32(x % calNodes)})
	}
	var sum uint64
	for i := 0; i < calEvents; i++ {
		e := heap.Pop(&q).(*calEvent)
		s := state[e.node] + e.at
		state[e.node] = s
		sum += s
		x = xorshift(x)
		heap.Push(&q, &calEvent{at: e.at + 1 + x%1000, node: int32(x % calNodes)})
	}
	return sum
}

type calNode struct {
	left, right *calNode
	v           uint64
}

func calTreeWalk() uint64 {
	var sum uint64
	for i := 0; i < calTrees; i++ {
		t := calBuild(calDepth, 1)
		sum += calWalk(t) + calWalk(t)
	}
	return sum
}

func calBuild(depth int, v uint64) *calNode {
	if depth == 0 {
		return &calNode{v: v}
	}
	return &calNode{left: calBuild(depth-1, 2*v), right: calBuild(depth-1, 2*v+1), v: v}
}

func calWalk(n *calNode) uint64 {
	if n == nil {
		return 0
	}
	return n.v + calWalk(n.left) + calWalk(n.right)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

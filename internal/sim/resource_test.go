package sim

import (
	"fmt"
	"reflect"
	"testing"

	"sais/internal/deque"
	"sais/internal/rng"
	"sais/internal/units"
)

func TestServerSerializesJobs(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var done []units.Time
	e.At(0, func(units.Time) {
		s.Submit(10, func(now units.Time) { done = append(done, now) })
		s.Submit(5, func(now units.Time) { done = append(done, now) })
		s.Submit(1, func(now units.Time) { done = append(done, now) })
	})
	e.RunUntilIdle()
	want := []units.Time{10, 15, 16}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("job %d completed at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var second units.Time
	e.At(0, func(units.Time) { s.Submit(10, nil) })
	e.At(100, func(units.Time) {
		s.Submit(10, func(now units.Time) { second = now })
	})
	e.RunUntilIdle()
	if second != 110 {
		t.Errorf("job after idle gap finished at %v, want 110", second)
	}
	if s.BusyTime() != 20 {
		t.Errorf("BusyTime = %v, want 20", s.BusyTime())
	}
}

func TestServerReturnsCompletionTime(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	e.At(0, func(units.Time) {
		if got := s.Submit(7, nil); got != 7 {
			t.Errorf("first Submit returned %v, want 7", got)
		}
		if got := s.Submit(3, nil); got != 10 {
			t.Errorf("second Submit returned %v, want 10", got)
		}
	})
	e.RunUntilIdle()
}

func TestServerStats(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	served := 0
	e.At(0, func(units.Time) {
		for i := 0; i < 3; i++ {
			s.Submit(10, func(units.Time) { served++ })
		}
	})
	e.RunUntilIdle()
	if served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
	if s.queueLen() != 0 || s.BusyTime() != 30 {
		t.Errorf("queue = %d, busy = %v after drain, want 0 and 30", s.queueLen(), s.BusyTime())
	}
}

func TestSubmitFuncSeesDispatchTime(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var dispatchAt units.Time = -1
	e.At(0, func(units.Time) {
		s.Submit(25, nil)
		s.SubmitFunc(func(start units.Time) units.Time {
			dispatchAt = start
			return 5
		}, nil)
	})
	e.RunUntilIdle()
	if dispatchAt != 25 {
		t.Errorf("costAt saw dispatch time %v, want 25", dispatchAt)
	}
}

func TestNegativeCostClamped(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	e.At(0, func(units.Time) {
		fin := s.SubmitFunc(func(units.Time) units.Time { return -5 }, nil)
		if fin != 0 {
			t.Errorf("negative cost finish = %v, want 0", fin)
		}
	})
	e.RunUntilIdle()
}

func TestBusy(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	e.At(0, func(units.Time) {
		s.Submit(10, nil)
		if !s.busyNow() {
			t.Error("server should be busy right after Submit")
		}
	})
	e.At(11, func(units.Time) {
		if s.busyNow() {
			t.Error("server should be idle after work drains")
		}
	})
	e.RunUntilIdle()
}

// queueLen returns the number of jobs submitted but not yet finished.
func (s *Server) queueLen() int { return s.done.Len() }

// busyNow reports whether the server is serving or has queued work.
func (s *Server) busyNow() bool { return s.eng.Now() < s.busyTo }

// refServer is the reference the ring-based Server is checked against:
// the same FIFO accounting with a completion closure per job.
type refServer struct {
	eng    *Engine
	busyTo units.Time
	queue  int
	busy   units.Time
}

func (s *refServer) Submit(cost units.Time, done Event) units.Time {
	return s.SubmitFunc(func(units.Time) units.Time { return cost }, done)
}

func (s *refServer) SubmitFunc(costAt func(units.Time) units.Time, done Event) units.Time {
	now := s.eng.Now()
	start := s.busyTo
	if start < now {
		start = now
	}
	s.queue++
	cost := costAt(start)
	if cost < 0 {
		cost = 0
	}
	finish := start + cost
	s.busyTo = finish
	s.busy += cost
	s.eng.At(finish, func(t units.Time) {
		s.queue--
		if done != nil {
			done(t)
		}
	})
	return finish
}

func (s *refServer) queueLen() int        { return s.queue }
func (s *refServer) BusyTime() units.Time { return s.busy }

// fifoServer is the surface the differential test drives.
type fifoServer interface {
	Submit(cost units.Time, done Event) units.Time
	SubmitFunc(costAt func(units.Time) units.Time, done Event) units.Time
	queueLen() int
	BusyTime() units.Time
}

// serverOp is one scripted submission: at time at, submit a job of
// cost (through SubmitFunc when dynamic, whose cost then also depends
// on the dispatch instant). A nil-done job logs nothing at completion;
// otherwise its done callback logs and, when resubmit > 0, submits a
// follow-up job of that cost from inside the callback.
type serverOp struct {
	at       units.Time
	cost     units.Time
	dynamic  bool
	nilDone  bool
	resubmit units.Time
}

func genServerOps(r *rng.Source) []serverOp {
	ops := make([]serverOp, 1+r.Intn(40))
	for i := range ops {
		op := serverOp{at: units.Time(r.Intn(120)), dynamic: r.Bool(0.4), nilDone: r.Bool(0.2)}
		switch {
		case r.Bool(0.25):
			op.cost = 0
		case r.Bool(0.05):
			op.cost = -units.Time(r.Intn(5) + 1) // clamped to zero
		default:
			op.cost = units.Time(r.Intn(30) + 1)
		}
		if !op.nilDone && r.Bool(0.3) {
			op.resubmit = units.Time(r.Intn(12))
		}
		ops[i] = op
	}
	return ops
}

// runServerOps plays ops against s on eng, interleaved with probe
// events at the same instants, and returns the log of everything that
// fired: completions, returned finish times, probes with the server's
// counters, and the engine's final event count.
func runServerOps(eng *Engine, s fifoServer, ops []serverOp, probes []units.Time) []string {
	var log []string
	snap := func(tag string, now units.Time) {
		log = append(log, fmt.Sprintf("%s@%d q=%d busy=%d",
			tag, now, s.queueLen(), s.BusyTime()))
	}
	for i, op := range ops {
		i, op := i, op
		eng.At(op.at, func(units.Time) {
			var done Event
			if !op.nilDone {
				done = func(now units.Time) {
					snap(fmt.Sprintf("done%d", i), now)
					if op.resubmit > 0 || op.cost == 0 {
						fin := s.Submit(op.resubmit, func(now units.Time) { snap(fmt.Sprintf("redo%d", i), now) })
						log = append(log, fmt.Sprintf("resubmit%d fin=%d", i, fin))
					}
				}
			}
			var fin units.Time
			if op.dynamic {
				fin = s.SubmitFunc(func(start units.Time) units.Time {
					log = append(log, fmt.Sprintf("costAt%d start=%d", i, start))
					return op.cost + start%3
				}, done)
			} else {
				fin = s.Submit(op.cost, done)
			}
			log = append(log, fmt.Sprintf("submit%d fin=%d", i, fin))
		})
	}
	for k, at := range probes {
		k := k
		eng.At(at, func(now units.Time) { snap(fmt.Sprintf("probe%d", k), now) })
	}
	eng.RunUntilIdle()
	snap("final", eng.Now())
	return append(log, fmt.Sprintf("fired=%d", eng.Fired()))
}

// TestServerMatchesReference runs random Submit/SubmitFunc mixes — zero
// and negative costs, nil done callbacks, callbacks that submit again —
// through Server and the closure-per-job reference, interleaved with
// unrelated engine events at the same instants, and requires identical
// logs: completion order and times, counters at every probe, and the
// engine's firing order and event count.
func TestServerMatchesReference(t *testing.T) {
	for i := 0; i < 300; i++ {
		r := rng.New(rng.Derive(0x5e4e, uint64(i)))
		ops := genServerOps(r)
		probes := make([]units.Time, 10)
		for k := range probes {
			probes[k] = units.Time(r.Intn(200))
		}
		var logs [2][]string
		for k := range logs {
			eng := NewEngine()
			var s fifoServer = NewServer(eng)
			if k == 1 {
				s = &refServer{eng: eng}
			}
			logs[k] = runServerOps(eng, s, ops, probes)
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("seed %d: Server diverges from reference\n got %q\nwant %q", i, logs[0], logs[1])
		}
	}
}

// TestEventRingFIFO checks the completion queue of done callbacks
// against a slice model across growth and wrap-around.
func TestEventRingFIFO(t *testing.T) {
	r := rng.New(rng.Derive(0xf1f0, 0))
	var ring deque.Deque[Event]
	var model []int
	var popped int
	ev := make([]Event, 64)
	for i := range ev {
		i := i
		ev[i] = func(units.Time) { popped = i }
	}
	for step := 0; step < 20000; step++ {
		if r.Bool(0.55) {
			v := step % len(ev)
			ring.PushBack(ev[v])
			model = append(model, v)
		} else if len(model) > 0 {
			ring.PopFront()(0)
			if popped != model[0] {
				t.Fatalf("step %d: popped %d, want %d", step, popped, model[0])
			}
			model = model[1:]
		}
		if ring.Len() != len(model) {
			t.Fatalf("step %d: len %d, want %d", step, ring.Len(), len(model))
		}
	}
}

// serverLoop is a warmed steady-state workload on one Server: a burst
// of queued jobs (one with a zero cost, one with no callback) drained to
// idle.
type serverLoop struct {
	eng   *Engine
	s     *Server
	done  Event
	depth int // QueueLen after the burst is submitted
}

func newServerLoop() *serverLoop {
	l := &serverLoop{eng: NewEngine()}
	l.s = NewServer(l.eng)
	l.done = func(units.Time) {}
	l.cycle() // grow the ring and the engine arena
	return l
}

func (l *serverLoop) cycle() {
	for i := 0; i < 8; i++ {
		l.s.Submit(units.Time(i%3), l.done)
	}
	l.s.Submit(5, nil)
	l.depth = l.s.queueLen()
	l.eng.RunUntilIdle()
}

func TestServerSubmitAllocFree(t *testing.T) {
	l := newServerLoop()
	if allocs := testing.AllocsPerRun(100, l.cycle); allocs != 0 {
		t.Errorf("Submit→complete loop allocates %v per cycle, want 0", allocs)
	}
	if l.depth != 9 || l.s.queueLen() != 0 {
		t.Fatalf("loop did not queue: depth %d, len %d", l.depth, l.s.queueLen())
	}
}

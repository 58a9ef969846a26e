package sim

import (
	"sais/internal/deque"
	"sais/internal/units"
)

// Server models a resource that serves one job at a time in FIFO order:
// a NIC serializing bytes onto a wire, a disk head, a core executing
// softirq work. Submitting a job while the server is busy queues it.
//
// The service time of each job is fixed at submission, which is the
// right model for store-and-forward hardware; jobs whose cost depends on
// state at dispatch should use SubmitFunc.
//
// Completions are FIFO: a job starts no earlier than its predecessor's
// finish, so finish times never decrease, and equal finish times fire
// in scheduling order (the engine's compound key). The server therefore
// keeps its jobs' done callbacks in a ring and schedules one prebound
// completion event per job that pops the front — no closure per job.
type Server struct {
	eng    *Engine
	busyTo units.Time
	busy   units.Time         // accumulated busy time
	done   deque.Deque[Event] // done callbacks of in-flight jobs, in finish order
	// completeFn is s.complete, bound by the first submission so that
	// building a server allocates no method value.
	completeFn Event
}

// NewServer returns an idle FIFO server bound to eng.
func NewServer(eng *Engine) *Server {
	return &Server{eng: eng}
}

// BusyTime returns total time spent serving jobs.
func (s *Server) BusyTime() units.Time { return s.busy }

// Submit enqueues a job taking cost time; done (optional) runs when the
// job completes. It returns the completion time.
//
//saisvet:allocfree
func (s *Server) Submit(cost units.Time, done Event) units.Time {
	return s.schedule(s.start(), cost, done)
}

// SubmitFunc enqueues a job whose cost is computed at dispatch time by
// costAt (receiving the dispatch instant). done (optional) runs at
// completion. It returns the completion time assuming costAt is
// deterministic at the time of the call; for state-dependent costs the
// returned value is the scheduled completion of this job given current
// queue contents.
func (s *Server) SubmitFunc(costAt func(units.Time) units.Time, done Event) units.Time {
	start := s.start()
	return s.schedule(start, costAt(start), done)
}

// start returns the start time of a job submitted now.
//
//saisvet:allocfree
func (s *Server) start() units.Time {
	return max(s.busyTo, s.eng.Now())
}

// schedule books a job of the given cost from start and schedules its
// completion.
//
//saisvet:allocfree
func (s *Server) schedule(start, cost units.Time, done Event) units.Time {
	if cost < 0 {
		cost = 0
	}
	finish := start + cost
	s.busyTo = finish
	s.busy += cost
	if s.completeFn == nil {
		s.completeFn = s.complete
	}
	s.done.PushBack(done)
	s.eng.At(finish, s.completeFn)
	return finish
}

// complete retires the oldest in-flight job.
//
//saisvet:allocfree
func (s *Server) complete(now units.Time) {
	if done := s.done.PopFront(); done != nil {
		//lint:alloc completion-callback invocation: the callback's allocations belong to its owner's budget
		done(now)
	}
}

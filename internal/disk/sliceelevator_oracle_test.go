package disk

import (
	"sais/internal/rng"
	"sais/internal/sim"
	"sais/internal/units"
)

// sliceDisk is the reference elevator Disk is checked against: the
// queue is a plain slice and dispatch deletes the chosen request by
// moving every request behind it, which is O(depth) per dispatch but
// obviously order-preserving. The positioning model (serviceTime) and
// the counters are the embedded Disk's; only the queue and the dispatch
// path are the reference's own. elevator_test.go drives both with the
// same requests.
type sliceDisk struct {
	Disk
	queue []request
}

func newSliceDisk(eng *sim.Engine, cfg Config, rnd *rng.Source) *sliceDisk {
	return &sliceDisk{Disk: *New(eng, cfg, rnd)}
}

func (s *sliceDisk) Read(lba, size units.Bytes, done sim.Event) {
	s.enqueue(lba, size, false, done)
}

func (s *sliceDisk) Write(lba, size units.Bytes, done sim.Event) {
	s.enqueue(lba, size, true, done)
}

func (s *sliceDisk) enqueue(lba, size units.Bytes, write bool, done sim.Event) {
	s.queue = append(s.queue, request{lba: lba, size: size, write: write, done: done})
	if !s.busy {
		s.dispatch()
	}
}

func (s *sliceDisk) dispatch() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	s.busy = true
	idx := s.pick()
	req := s.queue[idx]
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)

	cost := s.serviceTime(req)
	s.stats.Requests++
	if req.write {
		s.stats.Writes++
		s.stats.BytesOut += req.size
	} else {
		s.stats.Bytes += req.size
	}
	s.stats.BusyTime += cost
	s.cur = req
	s.eng.After(cost, s.complete)
}

func (s *sliceDisk) complete(now units.Time) {
	done := s.cur.done
	s.cur = request{}
	if done != nil {
		done(now)
	}
	s.dispatch()
}

func (s *sliceDisk) pick() int {
	limit := min(s.cfg.ElevatorWindow, len(s.queue))
	best, bestDist := 0, units.Bytes(-1)
	for i := 0; i < limit; i++ {
		dist := s.queue[i].lba - s.head
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

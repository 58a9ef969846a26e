package irqsched

import (
	"sais/internal/apic"
	"sais/internal/deque"
	"sais/internal/toeplitz"
	"sais/internal/units"
)

// FlowDirector models Intel Ethernet Flow Director in its ATR
// (application-targeted routing) mode: the NIC samples outgoing
// packets and records, per flow, the core that last transmitted — so
// the next receive interrupt for that flow is steered to where the
// application last ran. The table is bounded; full tables evict the
// oldest flow (perfect-filter exhaustion).
//
// The design carries the pathology Wu et al. analyse in "Why Does Flow
// Director Cause Packet Reordering?": the table updates the moment a
// transmit is sampled, so when an application thread migrates (or
// interleaved request processing makes different cores transmit for
// the same flow), packets of one flow that are already in flight split
// across two cores with different softirq backlogs and complete out of
// order. A-TFC (atfc.go) is the literature's fix: stage the update and
// promote it only at flow quiescence.
type FlowDirector struct {
	capacity int
	table    map[uint64]int
	order    deque.Deque[uint64] // insertion order, oldest first, for eviction

	inserts   uint64
	updates   uint64
	evictions uint64
	hits      uint64
	misses    uint64
}

// NewFlowDirector builds the policy with the given flow-table capacity
// (entries; < 1 means flowTable's 1024).
func NewFlowDirector(capacity int) *FlowDirector {
	if capacity < 1 {
		capacity = flowTable
	}
	return &FlowDirector{
		capacity: capacity,
		table:    make(map[uint64]int, capacity),
	}
}

// NoteTransmit implements TxObserver: record the transmitting core as
// the flow's receive target, immediately — the reordering race.
func (f *FlowDirector) NoteTransmit(flow uint64, core int) {
	if _, ok := f.table[flow]; ok {
		if f.table[flow] != core {
			f.updates++
		}
		f.table[flow] = core
		return
	}
	if len(f.table) >= f.capacity {
		delete(f.table, f.order.PopFront())
		f.evictions++
	}
	f.table[flow] = core
	f.order.PushBack(flow)
	f.inserts++
}

// Route implements apic.Router: table hit steers to the recorded core;
// misses (unseen or evicted flows) fall back to the Toeplitz hash,
// which is what the hardware's RSS fallback path does.
func (f *FlowDirector) Route(_ apic.Vector, _ int, flow uint64, allowed []int, _ units.Time) int {
	if core, ok := f.table[flow]; ok {
		for _, c := range allowed {
			if c == core {
				f.hits++
				return c
			}
		}
	}
	f.misses++
	h := toeplitz.HashUint64(flow)
	return allowed[int(h)%len(allowed)]
}

// Counters implements CounterReporter.
func (f *FlowDirector) Counters() map[string]uint64 {
	return map[string]uint64{
		"fd_inserts":   f.inserts,
		"fd_updates":   f.updates,
		"fd_evictions": f.evictions,
		"fd_hits":      f.hits,
		"fd_misses":    f.misses,
	}
}

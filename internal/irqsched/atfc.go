package irqsched

import (
	"sais/internal/apic"
	"sais/internal/toeplitz"
	"sais/internal/units"
)

// ATFC is the transport-friendly steering from the Flow Director
// reordering literature (Wu et al.): like Flow Director it learns a
// flow's core from the transmit path, but an affinity *change* for a
// flow with packets potentially in flight is staged, not applied —
// the staged core is promoted only when the flow goes idle (no
// outstanding receives). An in-flight stream therefore never splits
// across cores, which is what keeps its ReorderedFrames at zero; the
// price is that steering lags one flow-quiescence behind the
// application's migration.
type ATFC struct {
	active map[uint64]int
	staged map[uint64]int

	immediate uint64 // first-sighting bindings applied at once
	stagedCnt uint64 // affinity changes parked for quiescence
	promoted  uint64 // staged changes applied at flow idle
	hits      uint64
	misses    uint64
}

// NewATFC builds the policy.
func NewATFC() *ATFC {
	return &ATFC{
		active: make(map[uint64]int),
		staged: make(map[uint64]int),
	}
}

// NoteTransmit implements TxObserver. A flow's first binding applies
// immediately (nothing can be in flight yet); a change of binding is
// staged until NoteFlowIdle; a transmit from the already-active core
// cancels any pending change.
func (a *ATFC) NoteTransmit(flow uint64, core int) {
	cur, ok := a.active[flow]
	switch {
	case !ok:
		a.active[flow] = core
		a.immediate++
	case cur != core:
		a.staged[flow] = core
		a.stagedCnt++
	default:
		delete(a.staged, flow)
	}
}

// NoteFlowIdle implements FlowIdleObserver: promote the staged binding
// now that no packets of the flow are outstanding.
func (a *ATFC) NoteFlowIdle(flow uint64) {
	if core, ok := a.staged[flow]; ok {
		a.active[flow] = core
		delete(a.staged, flow)
		a.promoted++
	}
}

// Route implements apic.Router.
func (a *ATFC) Route(_ apic.Vector, _ int, flow uint64, allowed []int, _ units.Time) int {
	if core, ok := a.active[flow]; ok {
		for _, c := range allowed {
			if c == core {
				a.hits++
				return c
			}
		}
	}
	a.misses++
	h := toeplitz.HashUint64(flow)
	return allowed[int(h)%len(allowed)]
}

// Counters implements CounterReporter.
func (a *ATFC) Counters() map[string]uint64 {
	return map[string]uint64{
		"atfc_immediate": a.immediate,
		"atfc_staged":    a.stagedCnt,
		"atfc_promoted":  a.promoted,
		"atfc_hits":      a.hits,
		"atfc_misses":    a.misses,
	}
}

package irqsched

// StragglerAware is SAIs steering plus the client-side scheduling of
// Tavakoli et al.: the interrupt side is source-aware (embedded
// SourceAware, so hints, Hinted(), and fallback behave identically),
// while the ReorderIssue trait makes the client issue each transfer's
// per-server strip requests slowest-server-first, so the straggler's
// service time overlaps the faster servers instead of trailing them.
// All the scheduling logic lives in the client (per-server EWMA of
// strip latency); this type exists so the policy is selectable and
// self-describing through the policy table like every other baseline.
type StragglerAware struct {
	*SourceAware
}

// NewStragglerAware builds the policy with the default round-robin
// fallback for hint-less interrupts.
func NewStragglerAware() *StragglerAware {
	return &StragglerAware{SourceAware: NewSourceAware(nil)}
}

// Name implements apic.Router, shadowing the embedded SourceAware name.
func (s *StragglerAware) Name() string { return "straggler" }

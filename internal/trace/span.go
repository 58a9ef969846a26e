// Package trace records the typed lifecycle spans of a run — every
// strip's issue, service, fabric, ring, steer, irq and consume phases
// plus per-core busy slices — and renders them as Chrome trace-event
// JSON (cmd/saisim -trace-out) or as log lines (Span.String).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"sais/internal/units"
)

// Phase identifies one stage of a strip's lifecycle through the
// simulated cluster. The phases chain: a strip's Issue span ends where
// its Service span starts, and so on through Consume.
type Phase uint8

// Lifecycle phases, in chain order.
const (
	PhaseIssue   Phase = iota // client issue → request arrives at the server
	PhaseService              // server: request arrival → strip handed to the NIC
	PhaseFabric               // NIC egress enqueue → delivery into the client rx ring
	PhaseRing                 // rx ring dwell: delivery → driver drain
	PhaseSteer                // IOAPIC routing decision → local-APIC delivery on the chosen core
	PhaseIRQ                  // interrupt entry + softirq protocol processing
	PhaseConsume              // wake, cache migration, and compute on the consuming core
	NumPhases
)

var phaseNames = [NumPhases]string{
	"issue", "service", "fabric", "ring", "steer", "irq", "consume",
}

// String returns the phase's track label.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one completed phase of one strip's journey, carrying the
// strip's full identity so per-strip timelines can be reassembled
// across components.
type Span struct {
	Phase  Phase
	Start  units.Time
	End    units.Time
	Client int    // client node id
	Server int    // serving node id (-1 when not applicable)
	Tag    uint64 // transfer tag (unique per client)
	Strip  int    // global strip index within the transfer
	Core   int    // client core involved (-1 when not core-bound)
}

// String renders the span as one log line: start time, duration,
// phase, and the strip's identity.
func (s Span) String() string {
	return fmt.Sprintf("%12v +%-10v %-7s client=%d tag=%d strip=%d server=%d core=%d",
		s.Start, s.End-s.Start, s.Phase, s.Client, s.Tag, s.Strip, s.Server, s.Core)
}

// CoreSpan is one contiguous busy slice of a client core, labelled with
// its accounting category — the per-core activity tracks of the Chrome
// export.
type CoreSpan struct {
	Node  int // client node id
	Core  int
	Name  string // busy-time category ("softirq", "compute", ...)
	Start units.Time
	End   units.Time
}

// spanKey matches a Begin with its End across components: the server
// closes the Issue span the client opened, the softirq closes the Steer
// span the driver opened.
type spanKey struct {
	client int
	tag    uint64
	strip  int
	phase  Phase
}

// SpanLog collects the typed spans of one run. A nil *SpanLog is the
// disabled state: every instrumentation site nil-checks its log before
// touching it, so an uninstrumented run allocates nothing. Spans are
// stored by value in one growing slab; the pending map only holds the
// handful of open spans in flight.
//
// One log is shared by every node of a run and touched by one
// goroutine only: sharded runs execute their shards in turn on the
// caller's goroutine. Slab order still depends on the shard layout,
// which interleaves events differently from a single engine, so every
// exported or aggregated view sorts by a full span key first (see
// ExportChrome), and counts are order-free.
type SpanLog struct {
	spans   []Span
	cores   []CoreSpan
	pending map[spanKey]Span
	orphans uint64
}

// NewSpanLog returns an empty span log.
func NewSpanLog() *SpanLog {
	return &SpanLog{pending: make(map[spanKey]Span)}
}

// Begin opens a span: the phase has started for the identified strip.
// A second Begin for the same strip and phase (a retry) replaces the
// open span.
func (l *SpanLog) Begin(p Phase, at units.Time, client, server int, tag uint64, strip, core int) {
	l.pending[spanKey{client, tag, strip, p}] = Span{
		Phase: p, Start: at, Client: client, Server: server, Tag: tag, Strip: strip, Core: core,
	}
}

// End closes the matching open span at the given time and records it.
// core overrides the span's core when >= 0 (the steering decision is
// only known at delivery). An End with no matching Begin is counted in
// Orphans and otherwise ignored.
func (l *SpanLog) End(p Phase, at units.Time, client int, tag uint64, strip, core int) {
	k := spanKey{client, tag, strip, p}
	s, ok := l.pending[k]
	if !ok {
		l.orphans++
		return
	}
	delete(l.pending, k)
	s.End = at
	if core >= 0 {
		s.Core = core
	}
	l.spans = append(l.spans, s)
}

// Emit records an already-complete span (both endpoints known at the
// same instrumentation site).
func (l *SpanLog) Emit(s Span) {
	l.spans = append(l.spans, s)
}

// AddCoreSpan records one busy slice of a client core.
func (l *SpanLog) AddCoreSpan(cs CoreSpan) {
	l.cores = append(l.cores, cs)
}

// Spans returns the completed strip spans in slab order. Call only
// after the run drains; slab order depends on the shard layout, so
// order-sensitive consumers must sort (see ExportChrome).
func (l *SpanLog) Spans() []Span { return l.spans }

// CoreSpans returns the recorded core busy slices (same caveats as
// Spans).
func (l *SpanLog) CoreSpans() []CoreSpan { return l.cores }

// Len returns the number of completed strip spans.
func (l *SpanLog) Len() int { return len(l.spans) }

// OpenCount returns the spans begun but never ended — non-zero means
// strips died mid-flight (loss, abandon) or instrumentation is
// incomplete.
func (l *SpanLog) OpenCount() int { return len(l.pending) }

// PendingSpans returns a sorted copy of the spans begun but never
// ended — the strips that died mid-flight. The invariant checker walks
// them to demand that every issued strip still reached a terminal
// account (a consume span or a typed OpError). Sorted by spanLess so
// the view does not depend on map iteration order.
func (l *SpanLog) PendingSpans() []Span {
	out := make([]Span, 0, len(l.pending))
	for _, s := range l.pending {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return spanLess(out[i], out[j]) })
	return out
}

// Last returns the n spans that ended last, in end order. Ties break
// on the full span key, so the view is the same for any shard count.
func (l *SpanLog) Last(n int) []Span {
	spans := append([]Span(nil), l.spans...)
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.End != b.End {
			return a.End < b.End
		}
		return spanLess(a, b)
	})
	return spans[max(0, len(spans)-n):]
}

// spanLess orders spans by start time, then by every other field: the
// canonical order of the exported views.
func spanLess(a, b Span) bool {
	switch {
	case a.Start != b.Start:
		return a.Start < b.Start
	case a.Client != b.Client:
		return a.Client < b.Client
	case a.Tag != b.Tag:
		return a.Tag < b.Tag
	case a.Strip != b.Strip:
		return a.Strip < b.Strip
	case a.Phase != b.Phase:
		return a.Phase < b.Phase
	case a.Server != b.Server:
		return a.Server < b.Server
	case a.End != b.End:
		return a.End < b.End
	default:
		return a.Core < b.Core
	}
}

// Orphans returns the count of End calls that matched no open span
// (late duplicates from the retry path).
func (l *SpanLog) Orphans() uint64 { return l.orphans }

// Chrome-export track layout. Client and server node ids become
// Chrome pids directly; the fabric gets a pid far outside the node-id
// space, and each client's NIC rx ring gets a tid above any plausible
// core count.
const (
	// ChromeFabricPID is the Chrome process id of the fabric-transit
	// track group (one thread per server).
	ChromeFabricPID = 1 << 20
	// ChromeRingTID is the Chrome thread id of a client's "nic ring"
	// track.
	ChromeRingTID = 1000
)

// chromeSpanEvent is one Chrome trace-event record ("X" = complete
// span, "M" = metadata).
type chromeSpanEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container Perfetto and
// chrome://tracing both accept.
type chromeTrace struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []chromeSpanEvent `json:"traceEvents"`
}

// track resolves the (pid, tid) pair a span renders on.
func (s Span) track() (pid, tid int) {
	switch s.Phase {
	case PhaseService:
		return s.Server, 0
	case PhaseFabric:
		return ChromeFabricPID, s.Server
	case PhaseRing:
		return s.Client, ChromeRingTID
	default: // issue, steer, irq, consume: a client-core track
		core := s.Core
		if core < 0 {
			core = 0
		}
		return s.Client, core
	}
}

// ExportChrome writes the log as Chrome trace-event JSON: one complete
// ("X") event per span, per-core tracks for each client, one track per
// server's service path, a fabric-transit track group, and per-core
// busy-slice tracks. The file loads in Perfetto or chrome://tracing.
func (l *SpanLog) ExportChrome(w io.Writer) error {
	us := func(t units.Time) float64 { return float64(t) / float64(units.Microsecond) }
	// Slab order depends on event interleaving under sharded execution;
	// sorted copies make the export canonical — byte-identical for any
	// shard count.
	spans := append([]Span(nil), l.spans...)
	sort.Slice(spans, func(i, j int) bool { return spanLess(spans[i], spans[j]) })
	cores := append([]CoreSpan(nil), l.cores...)
	sort.Slice(cores, func(i, j int) bool {
		a, b := cores[i], cores[j]
		switch {
		case a.Start != b.Start:
			return a.Start < b.Start
		case a.Node != b.Node:
			return a.Node < b.Node
		case a.Core != b.Core:
			return a.Core < b.Core
		case a.End != b.End:
			return a.End < b.End
		default:
			return a.Name < b.Name
		}
	})
	events := make([]chromeSpanEvent, 0, len(spans)+len(cores))
	type trackKey struct{ pid, tid int }
	// Track naming is derived from how each track is used.
	procNames := map[int]string{}
	threadNames := map[trackKey]string{}
	for _, s := range spans {
		pid, tid := s.track()
		switch s.Phase {
		case PhaseService:
			procNames[pid] = "server " + strconv.Itoa(s.Server)
			threadNames[trackKey{pid, tid}] = "service"
		case PhaseFabric:
			procNames[pid] = "fabric"
			threadNames[trackKey{pid, tid}] = "from server " + strconv.Itoa(s.Server)
		case PhaseRing:
			procNames[pid] = "client " + strconv.Itoa(s.Client)
			threadNames[trackKey{pid, tid}] = "nic ring"
		default:
			procNames[pid] = "client " + strconv.Itoa(s.Client)
			threadNames[trackKey{pid, tid}] = "core " + strconv.Itoa(tid)
		}
		dur := us(s.End - s.Start)
		events = append(events, chromeSpanEvent{
			Name: s.Phase.String(),
			Cat:  "strip",
			Ph:   "X",
			TS:   us(s.Start),
			Dur:  &dur,
			PID:  pid,
			TID:  tid,
			Args: map[string]any{
				"tag": s.Tag, "strip": s.Strip, "server": s.Server, "core": s.Core,
			},
		})
	}
	for _, cs := range cores {
		procNames[cs.Node] = "client " + strconv.Itoa(cs.Node)
		threadNames[trackKey{cs.Node, cs.Core}] = "core " + strconv.Itoa(cs.Core)
		dur := us(cs.End - cs.Start)
		events = append(events, chromeSpanEvent{
			Name: cs.Name,
			Cat:  "cpu",
			Ph:   "X",
			TS:   us(cs.Start),
			Dur:  &dur,
			PID:  cs.Node,
			TID:  cs.Core,
		})
	}
	// Sorting by start time makes every (pid, tid) track's timestamps
	// monotonic, which the Perfetto importer expects. The sort is
	// stable over the canonical pre-sort above, so equal timestamps
	// keep a deterministic order too.
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	meta := make([]chromeSpanEvent, 0, len(procNames)+len(threadNames))
	for pid, name := range procNames {
		meta = append(meta, chromeSpanEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	for tk, name := range threadNames {
		meta = append(meta, chromeSpanEvent{
			Name: "thread_name", Ph: "M", PID: tk.pid, TID: tk.tid,
			Args: map[string]any{"name": name},
		})
	}
	sort.Slice(meta, func(i, j int) bool {
		a, b := meta[i], meta[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})

	return json.NewEncoder(w).Encode(chromeTrace{
		DisplayTimeUnit: "ns",
		TraceEvents:     append(meta, events...),
	})
}

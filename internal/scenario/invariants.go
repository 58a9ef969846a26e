package scenario

import (
	"fmt"
	"sort"

	"sais/cluster"
	"sais/internal/faults"
	"sais/internal/flowsim"
	"sais/internal/trace"
	"sais/internal/units"
)

// Violation is one broken runtime invariant: which rule, and the
// concrete evidence.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// stripID is the global identity of one strip's journey.
type stripID struct {
	client int
	tag    uint64
	strip  int
}

// opID identifies a transfer across the OpErrors rollup.
type opID struct {
	client int
	tag    uint64
}

// CheckInvariants verifies the structural properties every run must
// satisfy, whatever the configuration:
//
//	monotonic-clock  every span sits inside [0, Duration] with Start ≤ End
//	strip-terminal   every strip that appears in the span log reaches a
//	                 terminal account: a consume span, or a typed
//	                 OpError (abandoned or partial) for its transfer
//	strip-histogram  completed IRQ spans == the strip-latency histogram
//	                 count (every deposited strip was timed, once)
//	retry-budget     no retries with retries disabled; no OpError
//	                 beyond MaxRetries
//	crash-silence    no service span starts while its server is crashed
//	conservation     goodput never exceeds offered load, and equals it
//	                 on a healthy, lossless, retry-free run
//	clean-run        a healthy run has no duplicates, orphans, open
//	                 spans, failed or partial ops
//
// log may be nil (an unspanned run); span-based rules are skipped.
// The returned slice is empty when every invariant holds.
func CheckInvariants(cfg cluster.Config, res *cluster.Result, log *trace.SpanLog) []Violation {
	var vs []Violation
	add := func(inv, format string, args ...any) {
		vs = append(vs, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}

	healthy := cfg.Faults.Empty() && res.Retries == 0 && cfg.RetryTimeout == 0

	// retry-budget.
	if cfg.RetryTimeout == 0 && res.Retries != 0 {
		add("retry-budget", "%d retries recorded with RetryTimeout disabled", res.Retries)
	}
	for _, e := range res.Faults.OpErrors {
		if e.Retries > cfg.MaxRetries {
			add("retry-budget", "op error %v spent %d retries, budget %d", e, e.Retries, cfg.MaxRetries)
		}
	}

	// conservation.
	if res.Faults.GoodputBytes > res.Faults.OfferedBytes {
		add("conservation", "goodput %v exceeds offered load %v",
			res.Faults.GoodputBytes, res.Faults.OfferedBytes)
	}
	if healthy && res.Faults.RingDrops == 0 && res.Faults.GoodputBytes != res.Faults.OfferedBytes {
		add("conservation", "healthy run delivered %v of %v offered",
			res.Faults.GoodputBytes, res.Faults.OfferedBytes)
	}

	// background-conservation: analytic load cannot be silently
	// dropped. Served never exceeds offered; offered balances served
	// plus backlog (fluid truncation leaves at most one byte per
	// station plus float rounding); a hybrid run whose mix carries any
	// mean rate must have offered something; and a classic run must
	// report no background bytes at all.
	if cfg.BackgroundUsers > 0 {
		off, srv, bck := res.BackgroundOfferedBytes, res.BackgroundServedBytes, res.BackgroundBacklogBytes
		if srv > off {
			add("background-conservation", "background served %v exceeds offered %v", srv, off)
		}
		// One truncated byte per station (bounded by nodes) plus float
		// rounding on the cumulative sums.
		slack := units.KiB + off/1000000
		if gap := off - srv - bck; gap < -slack || gap > slack {
			add("background-conservation", "offered %v != served %v + backlog %v (gap %v, slack %v)",
				off, srv, bck, gap, slack)
		}
		if res.Duration > 0 && off == 0 &&
			flowsim.MixMeanRate(cfg.TenantMix, cfg.BackgroundUsers) > 0 {
			add("background-conservation", "%d background users with a live mix offered no bytes over %v",
				cfg.BackgroundUsers, res.Duration)
		}
	} else if res.BackgroundOfferedBytes != 0 || res.BackgroundServedBytes != 0 || res.BackgroundBacklogBytes != 0 {
		add("background-conservation", "classic run reports background bytes: offered %v served %v backlog %v",
			res.BackgroundOfferedBytes, res.BackgroundServedBytes, res.BackgroundBacklogBytes)
	}

	// clean-run.
	if healthy {
		if res.Faults.DuplicateStrips != 0 {
			add("clean-run", "%d duplicate strips on a healthy run", res.Faults.DuplicateStrips)
		}
		if res.Faults.FailedOps != 0 || res.Faults.PartialOps != 0 {
			add("clean-run", "healthy run has %d failed / %d partial ops",
				res.Faults.FailedOps, res.Faults.PartialOps)
		}
		if log != nil {
			if o := log.Orphans(); o != 0 {
				add("clean-run", "%d orphan span ends on a healthy run", o)
			}
			if n := log.OpenCount(); n != 0 {
				add("clean-run", "%d spans still open on a healthy run", n)
			}
		}
	}

	if log == nil {
		return vs
	}
	spans := log.Spans()
	//lint:maporder PendingSpans sorts its snapshot by full span key before returning
	pending := log.PendingSpans()

	// monotonic-clock.
	badClock := 0
	var firstBad trace.Span
	for _, s := range spans {
		if s.Start < 0 || s.End < s.Start || s.End > res.Duration {
			if badClock == 0 {
				firstBad = s
			}
			badClock++
		}
	}
	if badClock > 0 {
		add("monotonic-clock", "%d spans outside [0, %v]; first: %s [%v, %v]",
			badClock, res.Duration, firstBad.Phase, firstBad.Start, firstBad.End)
	}

	// strip-terminal and strip-histogram.
	terminal := make(map[opID]bool, len(res.Faults.OpErrors))
	for _, e := range res.Faults.OpErrors {
		terminal[opID{int(e.Client), e.Tag}] = true
	}
	consumed := make(map[stripID]bool)
	var irqSpans uint64
	for _, s := range spans {
		switch s.Phase {
		case trace.PhaseConsume:
			consumed[stripID{s.Client, s.Tag, s.Strip}] = true
		case trace.PhaseIRQ:
			irqSpans++
		}
	}
	if irqSpans != res.StripCount {
		add("strip-histogram", "%d completed irq spans vs %d strips in the latency histogram",
			irqSpans, res.StripCount)
	}
	seen := make(map[stripID]bool)
	collectStrip := func(s trace.Span) {
		if s.Phase == trace.PhaseConsume {
			return // consume spans are the terminal account itself
		}
		seen[stripID{s.Client, s.Tag, s.Strip}] = true
	}
	for _, s := range spans {
		collectStrip(s)
	}
	for _, s := range pending {
		collectStrip(s)
	}
	ids := make([]stripID, 0, len(seen))
	//lint:maporder sorted immediately below
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.client != b.client {
			return a.client < b.client
		}
		if a.tag != b.tag {
			return a.tag < b.tag
		}
		return a.strip < b.strip
	})
	lost := 0
	var firstLost stripID
	for _, id := range ids {
		if consumed[id] || terminal[opID{id.client, id.tag}] {
			continue
		}
		if lost == 0 {
			firstLost = id
		}
		lost++
	}
	if lost > 0 {
		add("strip-terminal", "%d strips issued but neither consumed nor accounted by an OpError; first: client %d tag %d strip %d",
			lost, firstLost.client, firstLost.tag, firstLost.strip)
	}

	// crash-silence: replay the plan's timeline into per-server crash
	// windows (idempotent crash/revive, like the injector) and demand no
	// service span starts inside one.
	windows := crashWindows(cfg)
	if len(windows) > 0 {
		silent := 0
		var firstNoisy trace.Span
		for _, s := range spans {
			if s.Phase != trace.PhaseService {
				continue
			}
			for _, w := range windows[s.Server] {
				if s.Start > w.from && s.Start < w.to {
					if silent == 0 {
						firstNoisy = s
					}
					silent++
					break
				}
			}
		}
		if silent > 0 {
			add("crash-silence", "%d service spans started inside a crash window; first: server %d at %v",
				silent, firstNoisy.Server, firstNoisy.Start)
		}
	}
	return vs
}

// window is one [from, to) downtime interval.
type window struct{ from, to units.Time }

// crashWindows replays the config's fault timeline into
// downtime intervals keyed by server *node id* (the id service spans
// carry), using the same idempotent crash/revive semantics as the
// injector. A crash without a revive stays down forever.
func crashWindows(cfg cluster.Config) map[int][]window {
	if cfg.Faults.Empty() {
		return nil
	}
	events := append([]faults.TimelineEvent(nil), cfg.Faults.Timeline...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	_, serverIDs, _ := cfg.NodeLayout()
	out := make(map[int][]window)
	downSince := make(map[int]units.Time)
	down := make(map[int]bool)
	for _, ev := range events {
		switch ev.Kind {
		case faults.KindCrash:
			if !down[ev.Server] {
				down[ev.Server] = true
				downSince[ev.Server] = ev.At
			}
		case faults.KindRevive:
			if down[ev.Server] {
				down[ev.Server] = false
				id := int(serverIDs[ev.Server])
				out[id] = append(out[id], window{from: downSince[ev.Server], to: ev.At})
			}
		}
	}
	//lint:maporder order-independent: each server contributes at most one open window, to its own key
	for srv, isDown := range down {
		if isDown {
			id := int(serverIDs[srv])
			out[id] = append(out[id], window{from: downSince[srv], to: units.Forever})
		}
	}
	return out
}

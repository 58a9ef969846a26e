package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"sais/internal/units"
)

func TestSpanBeginEnd(t *testing.T) {
	l := NewSpanLog()
	l.Begin(PhaseIssue, 100, 1, 100, 7, 3, 0)
	if l.OpenCount() != 1 || l.Len() != 0 {
		t.Fatalf("open=%d len=%d after Begin", l.OpenCount(), l.Len())
	}
	l.End(PhaseIssue, 250, 1, 7, 3, -1)
	if l.OpenCount() != 0 || l.Len() != 1 {
		t.Fatalf("open=%d len=%d after End", l.OpenCount(), l.Len())
	}
	s := l.Spans()[0]
	if s.Start != 100 || s.End != 250 || s.Server != 100 || s.Tag != 7 || s.Strip != 3 {
		t.Errorf("span = %+v", s)
	}
	if s.Core != 0 {
		t.Errorf("core = %d, want the Begin core preserved when End passes -1", s.Core)
	}
}

func TestSpanEndOverridesCore(t *testing.T) {
	l := NewSpanLog()
	l.Begin(PhaseSteer, 10, 2, 101, 9, 0, -1)
	l.End(PhaseSteer, 20, 2, 9, 0, 5)
	if got := l.Spans()[0].Core; got != 5 {
		t.Errorf("core = %d, want 5 (steering destination resolved at End)", got)
	}
}

func TestSpanOrphanEnd(t *testing.T) {
	l := NewSpanLog()
	l.End(PhaseIRQ, 50, 1, 1, 0, 2)
	if l.Orphans() != 1 || l.Len() != 0 {
		t.Errorf("orphans=%d len=%d", l.Orphans(), l.Len())
	}
}

func TestSpanPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseIssue: "issue", PhaseService: "service", PhaseFabric: "fabric",
		PhaseRing: "ring", PhaseSteer: "steer", PhaseIRQ: "irq", PhaseConsume: "consume",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
	if Phase(200).String() != "unknown" {
		t.Errorf("out-of-range phase = %q", Phase(200).String())
	}
}

func TestExportChrome(t *testing.T) {
	l := NewSpanLog()
	// One full chain for strip 0, client 1, server 100.
	l.Begin(PhaseIssue, 0, 1, 100, 1, 0, 0)
	l.End(PhaseIssue, 10*units.Microsecond, 1, 1, 0, -1)
	l.Begin(PhaseService, 10*units.Microsecond, 1, 100, 1, 0, -1)
	l.End(PhaseService, 30*units.Microsecond, 1, 1, 0, -1)
	l.Emit(Span{Phase: PhaseFabric, Start: 30 * units.Microsecond, End: 45 * units.Microsecond,
		Client: 1, Server: 100, Tag: 1, Strip: 0, Core: -1})
	l.Emit(Span{Phase: PhaseRing, Start: 45 * units.Microsecond, End: 47 * units.Microsecond,
		Client: 1, Server: 100, Tag: 1, Strip: 0, Core: -1})
	l.Begin(PhaseSteer, 47*units.Microsecond, 1, 100, 1, 0, -1)
	l.End(PhaseSteer, 48*units.Microsecond, 1, 1, 0, 3)
	l.Begin(PhaseIRQ, 48*units.Microsecond, 1, 100, 1, 0, 3)
	l.End(PhaseIRQ, 52*units.Microsecond, 1, 1, 0, 3)
	l.Emit(Span{Phase: PhaseConsume, Start: 52 * units.Microsecond, End: 60 * units.Microsecond,
		Client: 1, Server: -1, Tag: 1, Strip: 0, Core: 0})
	l.AddCoreSpan(CoreSpan{Node: 1, Core: 3, Name: "softirq", Start: 48 * units.Microsecond, End: 52 * units.Microsecond})

	var buf bytes.Buffer
	if err := l.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, meta int
	lastTS := map[[2]int]float64{}
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
			continue
		case "X":
			spans++
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
		track := [2]int{int(ev["pid"].(float64)), int(ev["tid"].(float64))}
		ts := ev["ts"].(float64)
		if last, ok := lastTS[track]; ok && ts < last {
			t.Errorf("track %v not monotonic: %v after %v", track, ts, last)
		}
		lastTS[track] = ts
		if ev["dur"].(float64) < 0 {
			t.Errorf("negative duration in %v", ev)
		}
	}
	if spans != 8 { // 7 strip phases + 1 core span
		t.Errorf("span events = %d, want 8", spans)
	}
	if meta == 0 {
		t.Error("no metadata (process/thread name) events")
	}
	if l.OpenCount() != 0 {
		t.Errorf("open spans leaked: %d", l.OpenCount())
	}
}

// TestSpanString pins the one-line rendering of a span.
func TestSpanString(t *testing.T) {
	s := Span{Phase: PhaseSteer, Start: 239600 * units.Microsecond, End: 239602500,
		Client: 1, Server: 114, Tag: 65, Strip: 14, Core: 1}
	const want = "     239.6ms +2.5us      steer   client=1 tag=65 strip=14 server=114 core=1"
	if got := s.String(); got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
}

// TestLastOrdersByEnd checks Last picks the spans that ended last, in
// end order with the full key breaking ties, whatever the slab order.
func TestLastOrdersByEnd(t *testing.T) {
	l := NewSpanLog()
	l.Emit(Span{Phase: PhaseIRQ, Start: 5, End: 30, Client: 2})
	l.Emit(Span{Phase: PhaseIRQ, Start: 1, End: 10, Client: 1})
	l.Emit(Span{Phase: PhaseRing, Start: 2, End: 30, Client: 1})
	l.Emit(Span{Phase: PhaseIRQ, Start: 2, End: 30, Client: 1})
	got := l.Last(3)
	want := []Span{
		{Phase: PhaseRing, Start: 2, End: 30, Client: 1},
		{Phase: PhaseIRQ, Start: 2, End: 30, Client: 1},
		{Phase: PhaseIRQ, Start: 5, End: 30, Client: 2},
	}
	if !slices.Equal(got, want) {
		t.Errorf("Last(3) = %v, want %v", got, want)
	}
	if n := len(l.Last(10)); n != 4 {
		t.Errorf("Last(10) returned %d spans, want all 4", n)
	}
}

package irqsched

import (
	"slices"
	"strings"
	"testing"

	"sais/internal/apic"
	"sais/internal/units"
)

func TestRegistryRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if strings.HasPrefix(name, "PolicyKind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
		got, err := ParsePolicy(name)
		if err != nil || got != k {
			t.Errorf("ParsePolicy(%v.String()) = %v, %v", k, got, err)
		}
		d, ok := Describe(k)
		if !ok || d.Name != name || d.Kind != k {
			t.Errorf("Describe(%v) = %+v, %v", k, d, ok)
		}
	}
	if len(Kinds()) != len(Names()) {
		t.Errorf("Kinds/Names size mismatch: %d vs %d", len(Kinds()), len(Names()))
	}
}

func TestParsePolicyErrorListsEveryName(t *testing.T) {
	_, err := ParsePolicy("bogus")
	if err == nil {
		t.Fatal("bogus policy parsed")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q omits registered policy %q", err, name)
		}
	}
}

func TestRouterNamesMatchRegistry(t *testing.T) {
	for _, k := range Kinds() {
		r, err := New(k, Options{Cores: 4})
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		// rss constructs a StaticTable, whose generic name is the one
		// exception to router.Name() == registry name.
		if k == PolicyHardwareRSS {
			continue
		}
		if r.Name() != k.String() {
			t.Errorf("router name %q != registry name %q", r.Name(), k.String())
		}
	}
}

func TestRSSTable(t *testing.T) {
	table := RSSTable(4, 8, 64)
	if len(table) != 8 {
		t.Fatalf("table size = %d, want 8", len(table))
	}
	for q := 0; q < 8; q++ {
		if got := table[64+apic.Vector(q)]; got != q%4 {
			t.Errorf("queue %d -> core %d, want %d", q, got, q%4)
		}
	}
	// Degenerate inputs still produce a usable table.
	if got := RSSTable(0, 0, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("RSSTable(0,0,0) = %v", got)
	}
}

func TestSocketAwareRotatesEqualCores(t *testing.T) {
	// Nil loads: every intra-socket core ties at queue 0. The fixed
	// scan of the old code pinned all of these on core 0; the rotation
	// must spread them over the whole socket.
	p := NewSocketAware(nil, 4, nil)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		c := p.Route(1, 1, 0, allowed(8), 0)
		if c/4 != 0 {
			t.Fatalf("left the hinted socket: core %d", c)
		}
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Errorf("equal-queue routing used only cores %v; want all of socket 0", seen)
	}
}

func TestFlowDirectorFollowsLastTransmit(t *testing.T) {
	p := NewFlowDirector(16)
	p.NoteTransmit(7, 3)
	for i := 0; i < 4; i++ {
		if got := p.Route(1, apic.NoHint, 7, allowed(8), 0); got != 3 {
			t.Fatalf("flow 7 routed to %d, want last-tx core 3", got)
		}
	}
	// The reordering race: a transmit from another core retargets the
	// flow immediately, while receives may still be in flight.
	p.NoteTransmit(7, 5)
	if got := p.Route(1, apic.NoHint, 7, allowed(8), 0); got != 5 {
		t.Fatalf("after migration flow 7 routed to %d, want 5", got)
	}
	c := p.Counters()
	if c["fd_inserts"] != 1 || c["fd_updates"] != 1 || c["fd_hits"] != 5 {
		t.Errorf("counters = %v", c)
	}
}

func TestFlowDirectorEvictsOldest(t *testing.T) {
	p := NewFlowDirector(2)
	p.NoteTransmit(1, 1)
	p.NoteTransmit(2, 2)
	p.NoteTransmit(3, 3) // evicts flow 1
	if p.Counters()["fd_evictions"] != 1 {
		t.Fatalf("counters = %v", p.Counters())
	}
	// Flow 1 now misses to the hash fallback; flows 2 and 3 still hit.
	if got := p.Route(1, apic.NoHint, 2, allowed(8), 0); got != 2 {
		t.Errorf("flow 2 -> %d, want 2", got)
	}
	if got := p.Route(1, apic.NoHint, 3, allowed(8), 0); got != 3 {
		t.Errorf("flow 3 -> %d, want 3", got)
	}
	p.Route(1, apic.NoHint, 1, allowed(8), 0)
	if p.Counters()["fd_misses"] != 1 {
		t.Errorf("counters = %v", p.Counters())
	}
}

func TestFlowDirectorDeterministic(t *testing.T) {
	run := func() []int {
		p := NewFlowDirector(8)
		var got []int
		for i := 0; i < 32; i++ {
			flow := uint64(i % 12)
			if i%3 == 0 {
				p.NoteTransmit(flow, i%4)
			}
			got = append(got, p.Route(1, apic.NoHint, flow, allowed(8), 0))
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestATFCStagesAffinityChanges(t *testing.T) {
	p := NewATFC()
	// First sighting binds immediately.
	p.NoteTransmit(9, 2)
	if got := p.Route(1, apic.NoHint, 9, allowed(8), 0); got != 2 {
		t.Fatalf("flow 9 -> %d, want 2", got)
	}
	// A migration is staged: receives keep landing on the old core.
	p.NoteTransmit(9, 6)
	if got := p.Route(1, apic.NoHint, 9, allowed(8), 0); got != 2 {
		t.Fatalf("staged change applied early: %d", got)
	}
	// Quiescence promotes it.
	p.NoteFlowIdle(9)
	if got := p.Route(1, apic.NoHint, 9, allowed(8), 0); got != 6 {
		t.Fatalf("after idle flow 9 -> %d, want 6", got)
	}
	c := p.Counters()
	if c["atfc_immediate"] != 1 || c["atfc_staged"] != 1 || c["atfc_promoted"] != 1 {
		t.Errorf("counters = %v", c)
	}
}

func TestATFCTransmitFromActiveCoreCancelsStage(t *testing.T) {
	p := NewATFC()
	p.NoteTransmit(9, 2)
	p.NoteTransmit(9, 6) // staged
	p.NoteTransmit(9, 2) // back on the active core: cancel
	p.NoteFlowIdle(9)
	if got := p.Route(1, apic.NoHint, 9, allowed(8), 0); got != 2 {
		t.Fatalf("cancelled stage still promoted: %d", got)
	}
	if p.Counters()["atfc_promoted"] != 0 {
		t.Errorf("counters = %v", p.Counters())
	}
}

func TestToeplitzStickyAndSpreads(t *testing.T) {
	p := NewToeplitz(8)
	seen := map[int]bool{}
	for flow := uint64(0); flow < 64; flow++ {
		first := p.Route(1, apic.NoHint, flow, allowed(8), 0)
		if got := p.Route(1, 3, flow, allowed(8), 0); got != first {
			t.Fatalf("flow %d moved (or followed a hint): %d then %d", flow, first, got)
		}
		seen[first] = true
	}
	if len(seen) < 6 {
		t.Errorf("64 flows landed on only %d of 8 cores", len(seen))
	}
}

func TestToeplitzRestrictedAllowedSet(t *testing.T) {
	p := NewToeplitz(8)
	set := []int{2, 5}
	for flow := uint64(0); flow < 16; flow++ {
		got := p.Route(1, apic.NoHint, flow, set, 0)
		if got != 2 && got != 5 {
			t.Fatalf("flow %d routed outside allowed set: %d", flow, got)
		}
	}
}

func TestStragglerAwareInheritsSourceAware(t *testing.T) {
	p := NewStragglerAware()
	if p.Name() != "straggler" {
		t.Fatalf("name = %q", p.Name())
	}
	if got := p.Route(1, 3, 0, allowed(8), 0); got != 3 {
		t.Fatalf("hint 3 routed to %d", got)
	}
	if p.Hinted() != 1 {
		t.Errorf("Hinted() = %d", p.Hinted())
	}
	d, _ := Describe(PolicyStragglerAware)
	if !d.UsesHints || !d.ReorderIssue {
		t.Errorf("descriptor traits = %+v", d)
	}
}

func TestTxSteeredTraitMatchesInterface(t *testing.T) {
	for _, k := range Kinds() {
		d, _ := Describe(k)
		r, err := New(k, Options{Cores: 4})
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if _, ok := r.(TxObserver); ok != d.TxSteered {
			t.Errorf("%v: TxObserver=%v but TxSteered=%v", k, ok, d.TxSteered)
		}
	}
}

// TestRoutersLeaveAllowedUntouched pins the apic.Router contract the
// I/O APIC relies on when it passes one shared candidate slice to every
// Route call: no policy may mutate allowed (and each must pick from
// it), whether the interrupt is hinted or not, across several flows and
// through the transmit and flow-idle observers.
func TestRoutersLeaveAllowedUntouched(t *testing.T) {
	const cores = 8
	loads := &fakeLoads{busy: make([]units.Time, cores), queue: make([]int, cores)}
	for _, k := range Kinds() {
		r, err := New(k, Options{Cores: cores, Loads: loads})
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		for _, want := range [][]int{allowed(cores), {1, 3, 5, 6}} {
			shared := append([]int(nil), want...)
			for i := 0; i < 300; i++ {
				flow := uint64(i % 5)
				hint := apic.NoHint
				if i%3 != 0 {
					hint = (i * 7) % cores
				}
				now := units.Time(i) * units.Millisecond
				loads.busy[i%cores] += units.Time(i%4) * units.Microsecond
				loads.queue[(i+3)%cores] = i % 6
				dest := r.Route(apic.Vector(32+i%2), hint, flow, shared, now)
				if !slices.Contains(want, dest) {
					t.Fatalf("%v: routed to core %d outside allowed %v", k, dest, want)
				}
				if tx, ok := r.(TxObserver); ok && i%4 == 0 {
					tx.NoteTransmit(flow, (i/4)%cores)
				}
				if fi, ok := r.(FlowIdleObserver); ok && i%9 == 0 {
					fi.NoteFlowIdle(flow)
				}
			}
			if !slices.Equal(shared, want) {
				t.Fatalf("%v mutated the shared allowed slice: %v, want %v", k, shared, want)
			}
		}
	}
}

package pfs

import (
	"testing"
	"testing/quick"

	"sais/internal/netsim"
	"sais/internal/rng"
	"sais/internal/units"
)

func testLayout(ns int) Layout {
	servers := make([]netsim.NodeID, ns)
	for i := range servers {
		servers[i] = netsim.NodeID(100 + i)
	}
	return Layout{StripSize: 64 * units.KiB, Servers: servers}
}

// extents plans a range the way a client does: Check the layout once,
// then CheckedLayout.Extents.
func extents(l Layout, offset, length units.Bytes) ([]ServerPlan, error) {
	c, err := l.Check()
	if err != nil {
		return nil, err
	}
	return c.Extents(offset, length)
}

// stripCount is the reference count of strips a range touches.
func stripCount(l Layout, offset, length units.Bytes) int {
	if length <= 0 {
		return 0
	}
	first := offset / l.StripSize
	last := (offset + length - 1) / l.StripSize
	return int(last-first) + 1
}

func TestLayoutValidate(t *testing.T) {
	if err := testLayout(4).Validate(); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		{StripSize: 0, Servers: []netsim.NodeID{1}},
		{StripSize: 64 * units.KiB},
		{StripSize: 64 * units.KiB, Servers: []netsim.NodeID{1, 1}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: bad layout accepted", i)
		}
	}
}

func TestExtentsAlignedTransfer(t *testing.T) {
	l := testLayout(4)
	// 1 MiB transfer at offset 0 = 16 strips over 4 servers, 4 each.
	plans, err := extents(l, 0, units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("plans for %d servers, want 4", len(plans))
	}
	for si, p := range plans {
		if len(p.Pieces) != 4 {
			t.Errorf("server %d has %d pieces, want 4", si, len(p.Pieces))
		}
		for j, piece := range p.Pieces {
			if piece.Size != 64*units.KiB {
				t.Errorf("piece size = %v", piece.Size)
			}
			wantStrip := si + 4*j
			if piece.GlobalStrip != wantStrip {
				t.Errorf("server %d piece %d strip = %d, want %d", si, j, piece.GlobalStrip, wantStrip)
			}
			wantLocal := units.Bytes(j) * 64 * units.KiB
			if piece.ServerOffset != wantLocal {
				t.Errorf("server %d piece %d local offset = %v, want %v", si, j, piece.ServerOffset, wantLocal)
			}
		}
	}
}

func TestExtentsWithOffset(t *testing.T) {
	l := testLayout(2)
	// Transfer starting at strip 3 (offset 192 KiB), length 128 KiB:
	// strips 3 (server 1, local 1*64K) and 4 (server 0, local 2*64K).
	plans, err := extents(l, 192*units.KiB, 128*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	var s0, s1 *ServerPlan
	for i := range plans {
		switch plans[i].ServerIdx {
		case 0:
			s0 = &plans[i]
		case 1:
			s1 = &plans[i]
		}
	}
	if s1 == nil || s1.Pieces[0].GlobalStrip != 3 || s1.Pieces[0].ServerOffset != 64*units.KiB {
		t.Errorf("server1 plan = %+v", s1)
	}
	if s0 == nil || s0.Pieces[0].GlobalStrip != 4 || s0.Pieces[0].ServerOffset != 128*units.KiB {
		t.Errorf("server0 plan = %+v", s0)
	}
}

func TestExtentsUnaligned(t *testing.T) {
	l := testLayout(2)
	// 100 KiB starting 10 KiB into strip 0: piece A = 54 KiB of strip 0,
	// piece B = 46 KiB of strip 1.
	plans, err := extents(l, 10*units.KiB, 100*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	var total units.Bytes
	for _, p := range plans {
		for _, piece := range p.Pieces {
			total += piece.Size
		}
	}
	if total != 100*units.KiB {
		t.Errorf("pieces sum to %v, want 100KiB", total)
	}
}

func TestExtentsErrors(t *testing.T) {
	l := testLayout(2)
	if _, err := extents(l, -1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := extents(l, 0, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := extents(Layout{}, 0, 10); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestStripCount(t *testing.T) {
	l := testLayout(4)
	if got := stripCount(l, 0, units.MiB); got != 16 {
		t.Errorf("stripCount(0,1MiB) = %d, want 16", got)
	}
	if got := stripCount(l, 63*units.KiB, 2*units.KiB); got != 2 {
		t.Errorf("straddling count = %d, want 2", got)
	}
	if got := stripCount(l, 0, 0); got != 0 {
		t.Errorf("zero length count = %d", got)
	}
}

// Property: extents partition the byte range exactly — sizes sum to
// length, pieces are disjoint, and local offsets are consistent with
// the round-robin distribution.
func TestExtentsPartitionProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		ns := r.Intn(8) + 1
		l := testLayout(ns)
		offset := units.Bytes(r.Int63n(int64(4 * units.MiB)))
		length := units.Bytes(r.Int63n(int64(4*units.MiB))) + 1
		plans, err := extents(l, offset, length)
		if err != nil {
			return false
		}
		var total units.Bytes
		seen := map[int]bool{}
		for _, p := range plans {
			var prevOff units.Bytes = -1
			for _, piece := range p.Pieces {
				if piece.Size <= 0 || piece.Size > l.StripSize {
					return false
				}
				if piece.GlobalStrip%ns != p.ServerIdx {
					return false
				}
				if seen[piece.GlobalStrip] {
					return false // a strip may appear at most once
				}
				seen[piece.GlobalStrip] = true
				if piece.ServerOffset <= prevOff {
					return false // ascending local order
				}
				prevOff = piece.ServerOffset
				total += piece.Size
			}
		}
		return total == length && len(seen) == stripCount(l, offset, length)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestLocalBytes(t *testing.T) {
	l := testLayout(4)
	l.Size = units.MiB // 16 strips over 4 servers: 4 each
	for i := 0; i < 4; i++ {
		if got := l.LocalBytes(i); got != 256*units.KiB {
			t.Errorf("server %d local = %v, want 256KiB", i, got)
		}
	}
	// 17 strips: the extra one lands on server 0.
	l.Size = units.MiB + 1
	if got := l.LocalBytes(0); got != 320*units.KiB {
		t.Errorf("server 0 local = %v, want 320KiB", got)
	}
	if got := l.LocalBytes(1); got != 256*units.KiB {
		t.Errorf("server 1 local = %v", got)
	}
	// Unknown size disables the computation.
	l.Size = 0
	if l.LocalBytes(0) != 0 {
		t.Error("zero size should report 0")
	}
}

// refExtents is the per-piece-append planner the shared-backing
// extents is checked against.
func refExtents(l Layout, offset, length units.Bytes) []ServerPlan {
	ns := len(l.Servers)
	plans := make([]ServerPlan, ns)
	for i := range plans {
		plans[i] = ServerPlan{ServerIdx: i, Server: l.Servers[i]}
	}
	end := offset + length
	strip := int(offset / l.StripSize)
	for pos := offset; pos < end; strip++ {
		stripStart := units.Bytes(strip) * l.StripSize
		pieceEnd := min(stripStart+l.StripSize, end)
		srv := strip % ns
		plans[srv].Pieces = append(plans[srv].Pieces, Piece{
			GlobalStrip:  strip,
			ServerOffset: units.Bytes(strip/ns)*l.StripSize + (pos - stripStart),
			Size:         pieceEnd - pos,
		})
		pos = pieceEnd
	}
	var out []ServerPlan
	for _, p := range plans {
		if len(p.Pieces) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// TestExtentsMatchesReference plans random (often unaligned) ranges
// over random layouts through CheckedLayout.Extents and requires the
// reference planner's plans, with every server's pieces sized exactly,
// so appending to one can never overwrite another's.
func TestExtentsMatchesReference(t *testing.T) {
	r := rng.New(rng.Derive(0xe87, 0))
	for i := 0; i < 2000; i++ {
		l := testLayout(1 + r.Intn(20))
		l.StripSize = units.Bytes(1+r.Intn(8)) * 4 * units.KiB
		offset := units.Bytes(r.Intn(int(4 * units.MiB)))
		length := units.Bytes(1 + r.Intn(int(3*units.MiB)))
		want := refExtents(l, offset, length)
		got, err := extents(l, offset, length)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d plans, want %d", i, len(got), len(want))
		}
		for k := range got {
			g, w := got[k], want[k]
			if g.ServerIdx != w.ServerIdx || g.Server != w.Server || len(g.Pieces) != len(w.Pieces) || cap(g.Pieces) != len(g.Pieces) {
				t.Fatalf("case %d plan %d: %+v, want %+v (cap %d)", i, k, g, w, cap(g.Pieces))
			}
			for p := range g.Pieces {
				if g.Pieces[p] != w.Pieces[p] {
					t.Fatalf("case %d plan %d piece %d: %+v, want %+v", i, k, p, g.Pieces[p], w.Pieces[p])
				}
			}
		}
	}
}

// TestCheckedLayout: Check rejects exactly what Validate rejects, and a
// checked layout keeps rejecting bad ranges.
func TestCheckedLayout(t *testing.T) {
	bad := Layout{StripSize: 64 * units.KiB, Servers: []netsim.NodeID{1, 1}}
	if _, err := bad.Check(); err == nil || err.Error() != bad.Validate().Error() {
		t.Errorf("Check(duplicate servers) = %v, want %v", err, bad.Validate())
	}
	c, err := testLayout(3).Check()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extents(0, 0); err == nil {
		t.Error("zero length accepted by a checked layout")
	}
	if c.LocalBytes(0) != testLayout(3).LocalBytes(0) || len(c.Servers) != 3 {
		t.Error("checked layout does not expose the layout")
	}
}

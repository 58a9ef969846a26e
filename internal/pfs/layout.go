// Package pfs models the parallel file system (PVFS in the paper's
// prototype): round-robin striping of files over I/O server nodes, a
// metadata server answering layout queries, and I/O servers that read
// strips from a rotational disk and stream them back to the client with
// the SAIs affinity hint echoed into every data packet.
package pfs

import (
	"fmt"

	"sais/internal/netsim"
	"sais/internal/units"
)

// FileID names a file in the file system.
type FileID uint64

// Layout describes how a file is striped: strip i lives on server
// i mod len(Servers), at local offset (i div len(Servers)) * StripSize
// within that server's local portion — PVFS's simple-stripe
// distribution.
type Layout struct {
	StripSize units.Bytes
	Servers   []netsim.NodeID
	// Size is the file's total length; it bounds server-side readahead
	// (a server must not prefetch past its local portion). Zero means
	// unknown, which disables prefetch.
	Size units.Bytes
}

// LocalBytes returns the size of the local portion server serverIdx
// holds: the strips congruent to serverIdx modulo the server count.
func (l Layout) LocalBytes(serverIdx int) units.Bytes {
	if l.Size <= 0 || l.StripSize <= 0 || len(l.Servers) == 0 {
		return 0
	}
	ns := len(l.Servers)
	totalStrips := (l.Size + l.StripSize - 1) / l.StripSize
	full := totalStrips / units.Bytes(ns)
	n := full * l.StripSize
	rem := totalStrips % units.Bytes(ns)
	if units.Bytes(serverIdx) < rem {
		n += l.StripSize
	}
	// The very last strip may be partial; the overcount is at most one
	// strip and only pads readahead, never data returned.
	return n
}

// Validate checks the layout is usable.
func (l Layout) Validate() error {
	if l.StripSize <= 0 {
		return fmt.Errorf("pfs: strip size %d must be positive", l.StripSize)
	}
	if len(l.Servers) == 0 {
		return fmt.Errorf("pfs: layout needs at least one server")
	}
	seen := map[netsim.NodeID]bool{}
	for _, s := range l.Servers {
		if seen[s] {
			return fmt.Errorf("pfs: duplicate server %d in layout", s)
		}
		seen[s] = true
	}
	return nil
}

// Piece is one contiguous byte range of a single strip, located on a
// server's local portion.
type Piece struct {
	GlobalStrip  int         // strip index within the file
	ServerOffset units.Bytes // byte offset within the server's local portion
	Size         units.Bytes
}

// ServerPlan lists the pieces one server must return for a request, in
// ascending local-offset order (which is also global-strip order).
type ServerPlan struct {
	ServerIdx int // index into Layout.Servers
	Server    netsim.NodeID
	Pieces    []Piece
}

// CheckedLayout is a Layout that has passed Validate. Planning through
// it skips the per-call validation, so a client validates a layout
// once, when it arrives, instead of on every transfer.
type CheckedLayout struct{ Layout }

// Check validates l and returns it as a CheckedLayout.
func (l Layout) Check() (CheckedLayout, error) {
	if err := l.Validate(); err != nil {
		return CheckedLayout{}, err
	}
	return CheckedLayout{l}, nil
}

// Extents maps a byte range [offset, offset+length) of the file onto
// per-server plans. Arbitrary (unaligned) ranges are supported; the
// evaluation workloads use strip-aligned transfers. Every server's
// pieces share one backing array, each server's share sized in
// advance, so a plan costs two allocations however many servers it
// spans.
func (l CheckedLayout) Extents(offset, length units.Bytes) ([]ServerPlan, error) {
	if offset < 0 || length <= 0 {
		return nil, fmt.Errorf("pfs: bad range offset=%d length=%d", offset, length)
	}
	ns := len(l.Servers)
	end := offset + length
	strip := int(offset / l.StripSize)
	last := int((end - 1) / l.StripSize)
	pieces := make([]Piece, last-strip+1)
	plans := make([]ServerPlan, ns)
	next := 0
	for i := range plans {
		// Strips strip..last held by server i: those ≡ i (mod ns).
		k := 0
		if s0 := strip + ((i-strip)%ns+ns)%ns; s0 <= last {
			k = (last-s0)/ns + 1
		}
		plans[i] = ServerPlan{ServerIdx: i, Server: l.Servers[i], Pieces: pieces[next : next : next+k]}
		next += k
	}
	for pos := offset; pos < end; {
		stripStart := units.Bytes(strip) * l.StripSize
		stripEnd := stripStart + l.StripSize
		pieceEnd := stripEnd
		if pieceEnd > end {
			pieceEnd = end
		}
		srv := strip % ns
		local := units.Bytes(strip/ns)*l.StripSize + (pos - stripStart)
		plans[srv].Pieces = append(plans[srv].Pieces, Piece{
			GlobalStrip:  strip,
			ServerOffset: local,
			Size:         pieceEnd - pos,
		})
		pos = pieceEnd
		strip++
	}
	// Drop servers with no pieces (short transfers).
	out := plans[:0]
	for _, p := range plans {
		if len(p.Pieces) > 0 {
			out = append(out, p)
		}
	}
	return out, nil
}

package pfs

import (
	"sais/internal/netsim"
	"sais/internal/units"
)

// Message bodies exchanged between client and file-system nodes. They
// ride as the opaque Body of netsim frames; the affinity hint travels
// separately in the frame's IP options (the wire truth), exactly as in
// the prototype.

// RequestSize is the on-wire payload size of a read request message.
const RequestSize = 128 * units.Byte

// LayoutRequestSize is the payload size of a metadata (open) query.
const LayoutRequestSize = 64 * units.Byte

// LayoutReplySize is the payload size of a metadata reply.
const LayoutReplySize = 256 * units.Byte

// ReadRequest asks one I/O server for the pieces of a transfer it
// holds.
type ReadRequest struct {
	File   FileID
	Tag    uint64 // client-chosen id of the whole transfer
	Client netsim.NodeID
	Pieces []Piece // local pieces to return, ascending offset
	// LocalEOF is the size of this server's local portion of the file,
	// bounding readahead. Zero disables server-side prefetch.
	LocalEOF units.Bytes
}

// StripData is one returned strip piece. The data bytes themselves are
// represented by the frame payload size.
type StripData struct {
	File        FileID
	Tag         uint64
	GlobalStrip int
	Size        units.Bytes
}

// StripWrite carries one strip of write data to an I/O server; the
// frame payload is the strip's bytes.
type StripWrite struct {
	File         FileID
	Tag          uint64
	Client       netsim.NodeID
	GlobalStrip  int
	ServerOffset units.Bytes
	Size         units.Bytes
}

// WriteAck acknowledges one written strip back to the client. Writes
// are acknowledged from the server's buffer cache (write-back); the
// platter flush happens asynchronously.
type WriteAck struct {
	File        FileID
	Tag         uint64
	GlobalStrip int
	Size        units.Bytes
}

// WriteAckSize is the on-wire payload size of a write acknowledgement.
const WriteAckSize = 64 * units.Byte

// LayoutRequest is the metadata query issued at file open.
type LayoutRequest struct {
	File   FileID
	Tag    uint64
	Client netsim.NodeID
}

// LayoutReply returns the file's striping layout.
type LayoutReply struct {
	Tag    uint64
	File   FileID
	Layout Layout
}

package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements a real IPv4 header codec so the SAIs hint path
// (the pfs server's echo on every reply, ReadHint in the client NIC
// driver) runs over genuine wire bytes, not just struct fields. Only the fields the
// simulator uses are interpreted; the rest round-trip.

// Header field constants.
const (
	ipVersion     = 4
	minIHL        = 5  // 32-bit words
	maxIHL        = 15 // header + up to 40 option bytes
	minHeaderLen  = minIHL * 4
	maxOptionsLen = (maxIHL - minIHL) * 4
)

// Codec errors.
var (
	ErrShortHeader  = errors.New("netsim: buffer shorter than IPv4 header")
	ErrBadVersion   = errors.New("netsim: not an IPv4 header")
	ErrBadIHL       = errors.New("netsim: invalid IHL")
	ErrOptionsLong  = errors.New("netsim: options exceed 40 bytes")
	ErrOptionsAlign = errors.New("netsim: options not 32-bit aligned")
	ErrBadChecksum  = errors.New("netsim: header checksum mismatch")
	ErrLengthField  = errors.New("netsim: total-length field inconsistent")
)

// IPv4Header is the decoded header of one simulated packet.
type IPv4Header struct {
	TotalLen uint16 // header + payload bytes
	ID       uint16
	TTL      uint8
	Protocol uint8
	SrcIP    uint32
	DstIP    uint32
	Options  []byte // raw options field, 32-bit aligned
}

// HeaderLen returns the encoded header length in bytes.
func (h *IPv4Header) HeaderLen() int { return minHeaderLen + len(h.Options) }

// MarshalAppend encodes the header (with a correct checksum) onto the
// end of buf and returns the extended slice; pooled frames pass a
// recycled frame's Header capacity, so the path allocates nothing.
func (h *IPv4Header) MarshalAppend(buf []byte) ([]byte, error) {
	if len(h.Options) > maxOptionsLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrOptionsLong, len(h.Options))
	}
	if len(h.Options)%4 != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrOptionsAlign, len(h.Options))
	}
	hlen := h.HeaderLen()
	if int(h.TotalLen) < hlen {
		return nil, fmt.Errorf("%w: total %d < header %d", ErrLengthField, h.TotalLen, hlen)
	}
	start := len(buf)
	for i := 0; i < hlen; i++ {
		buf = append(buf, 0)
	}
	b := buf[start:]
	b[0] = ipVersion<<4 | byte(hlen/4)
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	b[8] = h.TTL
	b[9] = h.Protocol
	binary.BigEndian.PutUint32(b[12:], h.SrcIP)
	binary.BigEndian.PutUint32(b[16:], h.DstIP)
	copy(b[minHeaderLen:], h.Options)
	binary.BigEndian.PutUint16(b[10:], checksum(b))
	return buf, nil
}

// decodeIPv4 decodes and validates a header from wire bytes into h and
// returns the number of bytes it occupied. It allocates nothing: it
// leaves h.Options aliasing b (nil when the header has none), so h is
// valid only while b is unchanged. On error h is unspecified.
func decodeIPv4(b []byte, h *IPv4Header) (int, error) {
	if len(b) < minHeaderLen {
		return 0, ErrShortHeader
	}
	if b[0]>>4 != ipVersion {
		return 0, fmt.Errorf("%w: version %d", ErrBadVersion, b[0]>>4)
	}
	ihl := int(b[0] & 0x0f)
	if ihl < minIHL || ihl > maxIHL {
		return 0, fmt.Errorf("%w: %d", ErrBadIHL, ihl)
	}
	hlen := ihl * 4
	if len(b) < hlen {
		return 0, ErrShortHeader
	}
	if checksum(b[:hlen]) != 0 {
		return 0, ErrBadChecksum
	}
	*h = IPv4Header{
		TotalLen: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint16(b[4:]),
		TTL:      b[8],
		Protocol: b[9],
		SrcIP:    binary.BigEndian.Uint32(b[12:]),
		DstIP:    binary.BigEndian.Uint32(b[16:]),
	}
	if int(h.TotalLen) < hlen {
		return 0, fmt.Errorf("%w: total %d < header %d", ErrLengthField, h.TotalLen, hlen)
	}
	if hlen > minHeaderLen {
		h.Options = b[minHeaderLen:hlen:hlen]
	}
	return hlen, nil
}

// checksum computes the RFC 1071 ones-complement sum of b. Computing it
// over a header whose checksum field holds the correct value yields 0.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

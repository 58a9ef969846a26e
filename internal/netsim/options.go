// Package netsim models the network path between PVFS I/O servers and
// the client: IPv4 packets carrying the SAIs affinity hint in the IP
// options field (the paper's Figure 4 wire format), NICs with a finite
// receive ring and interrupt coalescing, and a store-and-forward switch
// connecting node NICs.
package netsim

import (
	"errors"
	"fmt"
)

// MaxCores is the number of cores addressable by the 5-bit option
// number sub-field of the aff_core_id option (2^5, as the paper notes).
const MaxCores = 32

// Errors returned by the options codec.
var (
	ErrCoreRange  = errors.New("netsim: aff_core_id outside 0..31")
	ErrNotAffHint = errors.New("netsim: option byte is not an aff_core_id hint")
)

// The Figure-4 simple option layout:
//
//	bit 7    : copied flag, set to 1
//	bits 6-5 : option class, set to 1 (reserved/control per the paper)
//	bits 4-0 : option number = aff_core_id
const (
	copiedFlag  = 0x80
	classShift  = 5
	classValue  = 1
	numberMask  = 0x1f
	optionEOL   = 0x00
	headerByte  = copiedFlag | classValue<<classShift
	headerCheck = copiedFlag | 3<<classShift // copied+class mask
)

// EncodeAffOption packs aff_core_id into the single-byte IP option of
// Figure 4 (copied=1, class=1, number=core).
func EncodeAffOption(core int) (byte, error) {
	if core < 0 || core >= MaxCores {
		return 0, fmt.Errorf("%w: %d", ErrCoreRange, core)
	}
	return headerByte | byte(core), nil
}

// DecodeAffOption extracts aff_core_id from an option byte, validating
// the copied and class sub-fields.
func DecodeAffOption(b byte) (int, error) {
	if b&headerCheck != headerByte {
		return 0, fmt.Errorf("%w: %#02x", ErrNotAffHint, b)
	}
	return int(b & numberMask), nil
}

// AffHint is the parsed affinity hint carried by a packet. The zero
// value means "no hint" (Valid=false), the state of every packet in a
// non-SAIs configuration.
type AffHint struct {
	Core  int
	Valid bool
}

// Hint constructs a valid hint for core.
func Hint(core int) AffHint { return AffHint{Core: core, Valid: true} }

// String renders the hint for traces.
func (h AffHint) String() string {
	if !h.Valid {
		return "no-hint"
	}
	return fmt.Sprintf("aff_core=%d", h.Core)
}

// options writes the raw IP options field for the hint into buf — the
// aff_core_id option terminated by EOL and padded to the 32-bit
// boundary the IP header requires — and returns it, or nil when no
// hint is set.
func (h AffHint) options(buf *[4]byte) ([]byte, error) {
	if !h.Valid {
		return nil, nil
	}
	op, err := EncodeAffOption(h.Core)
	if err != nil {
		return nil, err
	}
	*buf = [4]byte{op, optionEOL, optionEOL, optionEOL}
	return buf[:], nil
}

// ParseOptions scans a raw IP options field for an aff_core_id hint,
// the SrcParser step of SAIs performed by the NIC driver. Unknown
// options are skipped per RFC 791 (single-byte options only in this
// model); a malformed field yields no hint rather than an error, as a
// driver must tolerate arbitrary traffic.
func ParseOptions(opts []byte) AffHint {
	for _, b := range opts {
		if b == optionEOL {
			break
		}
		if core, err := DecodeAffOption(b); err == nil {
			return Hint(core)
		}
	}
	return AffHint{}
}

package netsim

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalIPv4 drives the header decoder with arbitrary bytes: it
// must never panic, an accepted header's options must alias the input,
// and an accepted header must re-marshal to bytes that decode to the
// same fields.
func FuzzUnmarshalIPv4(f *testing.F) {
	good, _ := (&IPv4Header{TotalLen: 576, TTL: 64, Protocol: 6}).MarshalAppend(nil)
	f.Add(good)
	opts, _ := Hint(7).options(new([4]byte))
	withOpts, _ := (&IPv4Header{TotalLen: 576, TTL: 64, Protocol: 6, Options: opts}).MarshalAppend(nil)
	f.Add(withOpts)
	f.Add([]byte{0x45, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h IPv4Header
		n, err := decodeIPv4(data, &h)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v with length %d", err, n)
			}
			return
		}
		if len(h.Options) > 0 && &h.Options[0] != &data[minHeaderLen] {
			t.Fatal("decodeIPv4 options do not alias the input")
		}
		out, err := h.MarshalAppend(nil)
		if err != nil {
			t.Fatalf("accepted header does not re-marshal: %v", err)
		}
		var h2 IPv4Header
		n2, err := decodeIPv4(out, &h2)
		if err != nil {
			t.Fatalf("re-marshaled header rejected: %v", err)
		}
		if n2 != n || h2.TotalLen != h.TotalLen || h2.ID != h.ID || h2.TTL != h.TTL || h2.Protocol != h.Protocol ||
			h2.SrcIP != h.SrcIP || h2.DstIP != h.DstIP || !bytes.Equal(h2.Options, h.Options) {
			t.Fatalf("round trip drift: %+v vs %+v", h, h2)
		}
	})
}

// FuzzParseOptions drives the SrcParser with arbitrary option bytes.
func FuzzParseOptions(f *testing.F) {
	opts, _ := Hint(31).options(new([4]byte))
	f.Add(opts)
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := ParseOptions(data)
		if h.Valid && (h.Core < 0 || h.Core >= MaxCores) {
			t.Fatalf("hint out of range: %+v", h)
		}
	})
}

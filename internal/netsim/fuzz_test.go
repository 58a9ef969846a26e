package netsim

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalIPv4 drives the header codec with arbitrary bytes: it
// must never panic, the aliasing decodeIPv4 must agree with
// UnmarshalIPv4 on every input (fields, length and error), and any
// accepted header must re-marshal to bytes that decode to the same
// fields.
func FuzzUnmarshalIPv4(f *testing.F) {
	good, _ := (&IPv4Header{TotalLen: 576, TTL: 64, Protocol: 6}).Marshal()
	f.Add(good)
	opts, _ := Hint(7).OptionsBytes()
	withOpts, _ := (&IPv4Header{TotalLen: 576, TTL: 64, Protocol: 6, Options: opts}).Marshal()
	f.Add(withOpts)
	f.Add([]byte{0x45, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := UnmarshalIPv4(data)
		var d IPv4Header
		dn, derr := decodeIPv4(data, &d)
		if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
			t.Fatalf("decodeIPv4 error %v, UnmarshalIPv4 error %v", derr, err)
		}
		if err == nil {
			if dn != n || d.TotalLen != h.TotalLen || d.ID != h.ID || d.TTL != h.TTL || d.Protocol != h.Protocol ||
				d.SrcIP != h.SrcIP || d.DstIP != h.DstIP || !bytes.Equal(d.Options, h.Options) || (d.Options == nil) != (h.Options == nil) {
				t.Fatalf("decodeIPv4 %+v (%d) disagrees with UnmarshalIPv4 %+v (%d)", d, dn, *h, n)
			}
			if len(d.Options) > 0 && &d.Options[0] != &data[minHeaderLen] {
				t.Fatal("decodeIPv4 options do not alias the input")
			}
			if len(h.Options) > 0 && &h.Options[0] == &data[minHeaderLen] {
				t.Fatal("UnmarshalIPv4 options alias the input")
			}
		}
		if err != nil {
			if h != nil || n != 0 {
				t.Fatalf("error with non-zero result: %v %d", h, n)
			}
			return
		}
		out, err := h.Marshal()
		if err != nil {
			t.Fatalf("accepted header does not re-marshal: %v", err)
		}
		h2, _, err := UnmarshalIPv4(out)
		if err != nil {
			t.Fatalf("re-marshaled header rejected: %v", err)
		}
		if h2.TotalLen != h.TotalLen || h2.SrcIP != h.SrcIP || h2.DstIP != h.DstIP {
			t.Fatalf("round trip drift: %+v vs %+v", h, h2)
		}
	})
}

// FuzzParseOptions drives the SrcParser with arbitrary option bytes.
func FuzzParseOptions(f *testing.F) {
	opts, _ := Hint(31).OptionsBytes()
	f.Add(opts)
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := ParseOptions(data)
		if h.Valid && (h.Core < 0 || h.Core >= MaxCores) {
			t.Fatalf("hint out of range: %+v", h)
		}
	})
}

package netsim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeAffOption(t *testing.T) {
	for core := 0; core < MaxCores; core++ {
		b, err := EncodeAffOption(core)
		if err != nil {
			t.Fatalf("encode %d: %v", core, err)
		}
		if b&copiedFlag == 0 {
			t.Errorf("core %d: copied bit clear", core)
		}
		if (b>>classShift)&3 != classValue {
			t.Errorf("core %d: option class = %d, want 1", core, (b>>classShift)&3)
		}
		got, err := DecodeAffOption(b)
		if err != nil {
			t.Fatalf("decode %#02x: %v", b, err)
		}
		if got != core {
			t.Errorf("round trip %d -> %d", core, got)
		}
	}
}

func TestEncodeAffOptionRange(t *testing.T) {
	for _, core := range []int{-1, 32, 100} {
		if _, err := EncodeAffOption(core); !errors.Is(err, ErrCoreRange) {
			t.Errorf("EncodeAffOption(%d) err = %v, want ErrCoreRange", core, err)
		}
	}
}

func TestDecodeRejectsNonHint(t *testing.T) {
	for _, b := range []byte{0x00, 0x1f, 0x40, 0xc3} {
		if _, err := DecodeAffOption(b); !errors.Is(err, ErrNotAffHint) {
			t.Errorf("DecodeAffOption(%#02x) err = %v, want ErrNotAffHint", b, err)
		}
	}
}

func TestHintOptionsBytesRoundTrip(t *testing.T) {
	err := quick.Check(func(coreRaw uint8) bool {
		core := int(coreRaw % MaxCores)
		opts, err := Hint(core).options(new([4]byte))
		if err != nil || len(opts)%4 != 0 {
			return false
		}
		h := ParseOptions(opts)
		return h.Valid && h.Core == core
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNoHintOptions(t *testing.T) {
	opts, err := (AffHint{}).options(new([4]byte))
	if err != nil || opts != nil {
		t.Errorf("no-hint options = %v, %v", opts, err)
	}
	if h := ParseOptions(nil); h.Valid {
		t.Error("ParseOptions(nil) produced a hint")
	}
	if h := ParseOptions([]byte{optionEOL, 0xaa}); h.Valid {
		t.Error("hint after EOL should be ignored")
	}
}

func TestParseOptionsSkipsUnknown(t *testing.T) {
	op, _ := EncodeAffOption(7)
	h := ParseOptions([]byte{0x44, op, optionEOL}) // unknown option first
	if !h.Valid || h.Core != 7 {
		t.Errorf("ParseOptions = %v, want aff_core=7", h)
	}
}

func TestAffHintString(t *testing.T) {
	if (AffHint{}).String() != "no-hint" {
		t.Error("zero hint string")
	}
	if Hint(5).String() != "aff_core=5" {
		t.Errorf("Hint(5).String() = %q", Hint(5).String())
	}
}

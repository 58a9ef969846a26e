package textplot

import (
	"strings"
	"testing"
)

func sample() *Chart {
	return &Chart{
		Title:  "bandwidth",
		Labels: []string{"8 nodes", "16 nodes"},
		Series: []Series{
			{Name: "irqbalance", Values: []float64{190, 210}},
			{Name: "sais", Values: []float64{205, 255}},
		},
	}
}

func TestRenderBasics(t *testing.T) {
	out, err := sample().Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bandwidth", "8 nodes", "16 nodes", "irqbalance", "sais", "255"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+4 { // title + 2 labels × 2 series
		t.Errorf("lines = %d, want 5", len(lines))
	}
}

func TestBarsScaleToMax(t *testing.T) {
	c := sample()
	out, _ := c.Render()
	// The max value (255) must render a full-width bar; 190 shorter.
	countBar := func(line string, glyph rune) int {
		n := 0
		for _, r := range line {
			if r == glyph {
				n++
			}
		}
		return n
	}
	var full, small int
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "255") {
			full = countBar(line, '░')
		}
		if strings.Contains(line, "190") {
			small = countBar(line, '█')
		}
	}
	if full != barWidth {
		t.Errorf("max bar = %d glyphs, want full width %d", full, barWidth)
	}
	if small >= full || small < 1 {
		t.Errorf("smaller bar = %d glyphs vs max %d", small, full)
	}
}

func TestValidation(t *testing.T) {
	bad := []*Chart{
		{},
		{Labels: []string{"a"}},
		{Labels: []string{"a"}, Series: []Series{{Name: "x", Values: []float64{1, 2}}}},
	}
	for i, c := range bad {
		if _, err := c.Render(); err == nil {
			t.Errorf("case %d rendered", i)
		}
	}
}

func TestNonPositiveValues(t *testing.T) {
	c := &Chart{
		Labels: []string{"a"},
		Series: []Series{{Name: "x", Values: []float64{-5}}},
	}
	out, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-5") {
		t.Errorf("negative value not shown: %s", out)
	}
}

func TestDefaultWidth(t *testing.T) {
	out, err := sample().Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n")[1:] {
		bar := strings.Fields(line)[len(strings.Fields(line))-2]
		if n := len([]rune(bar)); n < 1 || n > barWidth {
			t.Errorf("bar %q is %d runes, want 1..%d", bar, n, barWidth)
		}
	}
}

// Package textplot renders small horizontal bar charts as text, so the
// experiment harness can show each figure's *shape* — the property the
// reproduction is judged on — directly in a terminal, next to the
// numeric table.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of values sharing the chart's scale.
type Series struct {
	Name   string
	Values []float64
}

// Chart is a grouped horizontal bar chart: one row per label, one bar
// per series.
type Chart struct {
	Title  string
	Labels []string
	Series []Series
}

// barWidth is the bar field width in runes: the largest value's bar.
const barWidth = 40

// Validate checks structural consistency.
func (c *Chart) Validate() error {
	if len(c.Labels) == 0 {
		return fmt.Errorf("textplot: no labels")
	}
	if len(c.Series) == 0 {
		return fmt.Errorf("textplot: no series")
	}
	for _, s := range c.Series {
		if len(s.Values) != len(c.Labels) {
			return fmt.Errorf("textplot: series %q has %d values for %d labels",
				s.Name, len(s.Values), len(c.Labels))
		}
	}
	return nil
}

// glyphs distinguish up to four series.
var glyphs = []rune{'█', '░', '▒', '▓'}

// Render returns the chart as text. Values are scaled to the global
// maximum; negative values render as empty bars with their number.
func (c *Chart) Render() (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	maxVal := 0.0
	for _, s := range c.Series {
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	labelW := 0
	for _, l := range c.Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	nameW := 0
	for _, s := range c.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, label := range c.Labels {
		for si, s := range c.Series {
			prefix := strings.Repeat(" ", labelW)
			if si == 0 {
				prefix = fmt.Sprintf("%-*s", labelW, label)
			}
			v := s.Values[i]
			bar := barOf(v, maxVal, glyphs[si%len(glyphs)])
			fmt.Fprintf(&b, "%s  %-*s %s %.4g\n", prefix, nameW, s.Name, bar, v)
		}
	}
	return b.String(), nil
}

// barOf draws one bar of v against scale max.
func barOf(v, max float64, glyph rune) string {
	if max <= 0 || v <= 0 || math.IsNaN(v) {
		return strings.Repeat("·", 1)
	}
	n := int(math.Round(v / max * barWidth))
	if n < 1 {
		n = 1
	}
	if n > barWidth {
		n = barWidth
	}
	return strings.Repeat(string(glyph), n)
}

// Package hexbin builds the 2D histograms behind the paper's Figures 3–10:
// log-color-scaled density plots of one coordination metric against
// another. (The thesis renders hexagonal bins with Matplotlib; the binned
// density is the data product, and we use rectangular bins, CSV export and
// an ASCII renderer so results are reproducible without a plotting stack.)
package hexbin

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Hist2D is a 2D histogram over [MinX,MaxX] × [MinY,MaxY].
type Hist2D struct {
	BinsX, BinsY int
	MinX, MaxX   float64
	MinY, MaxY   float64
	Counts       []int64 // row-major: Counts[y*BinsX+x]
	Total        int64
	// Clipped counts points outside the range (clamped into edge bins).
	Clipped int64
}

// New creates an empty histogram. Panics on degenerate dimensions.
func New(binsX, binsY int, minX, maxX, minY, maxY float64) *Hist2D {
	if binsX < 1 || binsY < 1 || maxX <= minX || maxY <= minY {
		panic(fmt.Sprintf("hexbin: bad dimensions %dx%d [%g,%g]x[%g,%g]",
			binsX, binsY, minX, maxX, minY, maxY))
	}
	return &Hist2D{
		BinsX: binsX, BinsY: binsY,
		MinX: minX, MaxX: maxX, MinY: minY, MaxY: maxY,
		Counts: make([]int64, binsX*binsY),
	}
}

func (h *Hist2D) bin(v, min, max float64, bins int) (int, bool) {
	clipped := false
	if v < min {
		v, clipped = min, true
	}
	if v > max {
		v, clipped = max, true
	}
	i := int((v - min) / (max - min) * float64(bins))
	if i == bins {
		i = bins - 1 // v == max lands in the top bin
	}
	return i, clipped
}

// Add records one point; out-of-range points are clamped and counted.
func (h *Hist2D) Add(x, y float64) {
	bx, cx := h.bin(x, h.MinX, h.MaxX, h.BinsX)
	by, cy := h.bin(y, h.MinY, h.MaxY, h.BinsY)
	if cx || cy {
		h.Clipped++
	}
	h.Counts[by*h.BinsX+bx]++
	h.Total++
}

// At returns the count in bin (bx, by).
func (h *Hist2D) At(bx, by int) int64 { return h.Counts[by*h.BinsX+bx] }

// MaxCount returns the densest bin's count.
func (h *Hist2D) MaxCount() int64 {
	var m int64
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// NonEmptyBins counts occupied bins.
func (h *Hist2D) NonEmptyBins() int {
	n := 0
	for _, c := range h.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// BinCenters returns the center coordinates of bin (bx, by).
func (h *Hist2D) BinCenters(bx, by int) (x, y float64) {
	x = h.MinX + (float64(bx)+0.5)*(h.MaxX-h.MinX)/float64(h.BinsX)
	y = h.MinY + (float64(by)+0.5)*(h.MaxY-h.MinY)/float64(h.BinsY)
	return x, y
}

// WriteCSV emits "x,y,count" rows for non-empty bins (bin centers),
// sorted for determinism.
func (h *Hist2D) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "x,y,count"); err != nil {
		return err
	}
	type row struct {
		x, y float64
		c    int64
	}
	rows := make([]row, 0, h.NonEmptyBins())
	for by := 0; by < h.BinsY; by++ {
		for bx := 0; bx < h.BinsX; bx++ {
			if c := h.At(bx, by); c > 0 {
				x, y := h.BinCenters(bx, by)
				rows = append(rows, row{x, y, c})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].x != rows[j].x {
			return rows[i].x < rows[j].x
		}
		return rows[i].y < rows[j].y
	})
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%g,%g,%d\n", r.x, r.y, r.c); err != nil {
			return err
		}
	}
	return nil
}

// shades is the log-scaled density ramp for ASCII rendering; empty bins are
// blank, matching the paper's "empty bins left white".
var shades = []byte(" .:-=+*#%@")

// Render draws a log-color-scaled ASCII heat map, y increasing upward, with
// a y=x diagonal marker ('/') on empty bins when the axes share a range —
// the blue reference line of the figures.
func (h *Hist2D) Render(w io.Writer, title string) error {
	maxC := h.MaxCount()
	logMax := math.Log1p(float64(maxC))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (n=%d, bins=%dx%d, max bin=%d)\n",
		title, h.Total, h.BinsX, h.BinsY, maxC)
	sameRange := h.MinX == h.MinY && h.MaxX == h.MaxY
	for by := h.BinsY - 1; by >= 0; by-- {
		yLo := h.MinY + float64(by)*(h.MaxY-h.MinY)/float64(h.BinsY)
		fmt.Fprintf(&sb, "%10.3g |", yLo)
		for bx := 0; bx < h.BinsX; bx++ {
			c := h.At(bx, by)
			if c == 0 {
				if sameRange && bx*h.BinsY == by*h.BinsX {
					sb.WriteByte('/')
				} else {
					sb.WriteByte(' ')
				}
				continue
			}
			level := 0
			if logMax > 0 {
				level = int(math.Log1p(float64(c)) / logMax * float64(len(shades)-1))
			}
			if level >= len(shades) {
				level = len(shades) - 1
			}
			sb.WriteByte(shades[level])
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%10s +%s\n", "", strings.Repeat("-", h.BinsX))
	fmt.Fprintf(&sb, "%10s  %-10.3g%*s%10.3g\n", "", h.MinX, h.BinsX-20, "", h.MaxX)
	_, err := io.WriteString(w, sb.String())
	return err
}

package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named line of an ASCII plot.
type Series struct {
	Name string
	X, Y []float64
}

// ASCIIPlot renders series as a fixed-size character plot, used by the
// experiment tools to show figure shapes directly in a terminal. Each
// series is drawn with its own marker; axes are annotated with the data
// ranges. Points with NaN Y values are skipped.
func ASCIIPlot(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) || math.IsNaN(s.Y[i]) {
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		return title + "\n(no data)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if i >= len(s.Y) || math.IsNaN(s.Y[i]) {
				continue
			}
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = m
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10.4g ┤%s\n", ymax, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", ymin, string(grid[height-1]))
	fmt.Fprintf(&b, "%10s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(&b, "%11s%-*.4g%*.4g\n", "", width/2, xmin, width-width/2, xmax)

	names := make([]string, 0, len(series))
	for si, s := range series {
		names = append(names, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%11s%s\n", "", strings.Join(names, "   "))
	return b.String()
}

package main

import (
	"fmt"
	"io"

	"distws/internal/obs"
)

// Band is one tolerance band: an observed value passes against a
// baseline when |got-base| <= Abs + Rel*|base|. The zero band demands
// exact equality. Bands exist for what the host measures — allocation
// counts and bytes per op — not for simulator outputs, which are pure
// functions of (config, seed) and are compared by equality.
type Band struct {
	// Rel is the allowed relative deviation (0.05 = ±5% of |base|).
	Rel float64 `json:"rel,omitempty"`
	// Abs is the allowed absolute deviation, in the metric's own unit.
	Abs float64 `json:"abs,omitempty"`
}

// Check reports whether got is within the band around base.
func (b Band) Check(base, got float64) bool {
	dev := got - base
	if dev < 0 {
		dev = -dev
	}
	scale := base
	if scale < 0 {
		scale = -scale
	}
	return dev <= b.Abs+b.Rel*scale
}

// Violation is one metric outside its band.
type Violation struct {
	// Name identifies the metric ("pkg.Benchmark/allocs_per_op").
	Name string  `json:"name"`
	Base float64 `json:"base"`
	Got  float64 `json:"got"`
	Band Band    `json:"band"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %.6g -> %.6g outside band (rel %.3g, abs %.3g)",
		v.Name, v.Base, v.Got, v.Band.Rel, v.Band.Abs)
}

// Gate accumulates band checks; order of Check calls fixes the order of
// reported violations, so callers checking in a deterministic order get
// deterministic reports.
type Gate struct {
	Checked    int
	Violations []Violation
}

// Check records a violation when got falls outside band around base.
func (g *Gate) Check(name string, band Band, base, got float64) {
	g.Checked++
	if !band.Check(base, got) {
		g.Violations = append(g.Violations, Violation{Name: name, Base: base, Got: got, Band: band})
	}
}

// OK reports whether every checked metric stayed in band.
func (g *Gate) OK() bool { return len(g.Violations) == 0 }

// Report writes one line per violation (or a pass summary).
func (g *Gate) Report(w io.Writer) error {
	bw := &obs.ErrWriter{W: w}
	if g.OK() {
		bw.Printf("tolerance gate: %d metric(s) checked, all in band\n", g.Checked)
		return bw.Err
	}
	bw.Printf("tolerance gate: %d of %d metric(s) OUT OF BAND\n", len(g.Violations), g.Checked)
	for _, v := range g.Violations {
		bw.Printf("  FAIL %s\n", v)
	}
	return bw.Err
}

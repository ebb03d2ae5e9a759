// Package analysis is a small, dependency-free static-analysis
// framework modeled on golang.org/x/tools/go/analysis, built on the
// standard library's go/parser, go/types and go/importer only (the
// build environment has no module network access).
//
// It exists to make the repository's determinism and concurrency
// invariants machine-checked rather than comment-enforced: the
// simulator must be a pure function of its seed, so every random draw
// has to flow through internal/rng, no virtual-time package may
// consult the wall clock, arena event handles and pooled messages must
// follow their ownership rules, and the deterministic packages must
// stay free of ordering hazards before the kernel is sharded across
// threads. A module-wide call graph (see CallGraph) lets the analyzers
// follow these invariants through wrapper functions instead of only at
// direct call sites. The concrete analyzers live in the subpackages
// detrand, walltime, lockcheck, handlesafe, poolcheck, hotalloc and
// detorder; the driver is cmd/distwsvet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding, attributed to the analyzer that made it
// and the package it was found in.
type Diagnostic struct {
	Analyzer string
	Package  string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ImportPath is the package's import path as the go tool reports
	// it. Analyzers use it for allowlist decisions.
	ImportPath string
	// Graph is the module-wide call graph over every package of this
	// Run, shared across passes. Interprocedural analyzers query it for
	// reachability; intraprocedural ones can ignore it.
	Graph *CallGraph

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.ImportPath,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to each package and returns all
// diagnostics sorted by file position. Passes run concurrently up to
// GOMAXPROCS; analyzers must confine mutable state to the pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunParallel(pkgs, analyzers, runtime.GOMAXPROCS(0))
}

// RunParallel is Run with an explicit (package, analyzer) pass
// concurrency. Loading and type-checking stay serial in Load; the
// passes themselves only read the shared FileSet, type info and call
// graph, so they parallelize freely. Output is deterministic: results
// are merged in a fixed order and fully sorted.
func RunParallel(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, error) {
	if workers < 1 {
		workers = 1
	}
	graph := BuildCallGraph(pkgs)

	type job struct {
		pkg *Package
		a   *Analyzer
	}
	var jobs []job
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			jobs = append(jobs, job{pkg, a})
		}
	}
	results := make([][]Diagnostic, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pass := &Pass{
				Analyzer:   j.a,
				Fset:       j.pkg.Fset,
				Files:      j.pkg.Files,
				Pkg:        j.pkg.Types,
				Info:       j.pkg.Info,
				ImportPath: j.pkg.ImportPath,
				Graph:      graph,
			}
			if err := j.a.Run(pass); err != nil {
				errs[i] = fmt.Errorf("%s: %s: %w", j.a.Name, j.pkg.ImportPath, err)
				return
			}
			results[i] = pass.diags
		}(i, j)
	}
	wg.Wait()
	var diags []Diagnostic
	for i := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, results[i]...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// PathMatches reports whether an import path equals one of the given
// prefixes or sits below one of them (prefix match on whole path
// segments, so "a/b" matches "a/b" and "a/b/c" but not "a/bc").
func PathMatches(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

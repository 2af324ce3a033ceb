// Package analysis is a dependency-free mirror of the
// golang.org/x/tools/go/analysis framework, sized for GEA's own linter
// suite (cmd/geacheck). The toolchain image this repository builds in has
// no module proxy access, so rather than vendoring x/tools the toolkit
// carries the ~small subset it needs: an Analyzer/Pass/Diagnostic triple
// with the same field names and semantics, a package loader built on
// `go list -export` (internal/analysis/load), and an analysistest-style
// golden harness (internal/analysis/antest). Swapping a GEA analyzer onto
// the real x/tools framework is a mechanical import change.
//
// The suite exists to machine-enforce the execution-governance contract
// threaded through the operator algebra — checkpointed loops, lock
// discipline, sentinel-wrapped errors, flagged partial results, and panic
// isolation. See ANALYSIS.md for the catalogue of analyzers and the
// invariant each one guards.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass: a name (also the key used
// by //lint:gea suppression directives), documentation, and a Run
// function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// directives. By convention a short lowercase word ("ctlcharge").
	Name string
	// Doc is the first sentence summary followed by a longer
	// description, in the style of go/analysis.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report / pass.Reportf. It returns an error only for
	// internal failures (not for findings).
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer's Run function, mirroring go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns ordering,
	// suppression filtering and formatting.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned inside the package being
// analyzed.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic as the driver emits it: a Diagnostic
// plus the analyzer that produced it and its resolved file position.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// Run applies one analyzer to one package and returns the raw
// diagnostics (unfiltered: suppression is the driver's job, via Filter).
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
	}
	return diags, nil
}

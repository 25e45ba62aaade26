// Package analysis is parallaxvet: four custom static analyzers that
// mechanically enforce the invariants the runtime's bit-determinism
// guarantee rests on (DESIGN.md §15):
//
//   - detfold: no order-dependent folds over Go's randomized map
//     iteration in data-plane packages — sort the keys first or
//     justify the site with //parallax:orderinvariant.
//   - detsource: no wall-clock or ambient-randomness sources in
//     data-plane packages — control flow must be a pure function of
//     step count (§12/§14 epoch discipline).
//   - wrapsentinel: fmt.Errorf over an internal/errs sentinel must use
//     %w so errors.Is keeps matching, and errors.Is against a local
//     sentinel that no in-package path ever constructs is dead code.
//   - lockheld: no blocking operations (channel ops, Conduit/net IO,
//     foreign Cond.Wait, time.Sleep) while a sync.Mutex/RWMutex is
//     held — the deadlock shape the parameter server's Abort protocol
//     (§3) exists to break.
//
// The package mirrors the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) but is dependency-free: the build is
// hermetic, so the driver loads packages itself through
// `go list -export` and the standard library's gc export-data
// importer (see load.go). Swapping the analyzers onto the upstream
// framework later is a mechanical change — every Run function only
// touches go/ast and go/types.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the upstream
// x/tools analysis.Analyzer shape so the checks can migrate to the
// real framework without edits to their Run functions.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //parallax:allow(<name>) pragmas.
	Name string
	// Doc is the one-paragraph description printed by parallaxvet -help.
	Doc string
	// Run analyzes one package and reports findings through the Pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding, position-resolved for printing.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path
	Pkg      *types.Package
	Info     *types.Info

	pragmas pragmaIndex
	report  func(Diagnostic)
}

// Reportf records a finding at pos unless a pragma on the same or the
// preceding source line suppresses this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pragmas.suppresses(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// dataPlanePackages are the import paths whose control flow and
// emission order must be bit-deterministic: everything on the path
// from a gradient to the wire, a checkpoint shard, or an optimizer
// fold. detfold and detsource scope themselves to these.
var dataPlanePackages = map[string]bool{
	"parallax/internal/transform":  true,
	"parallax/internal/psrt":       true,
	"parallax/internal/collective": true,
	"parallax/internal/tensor":     true,
	"parallax/internal/checkpoint": true,
	"parallax/internal/transport":  true,
	"parallax/internal/graph":      true,
	"parallax/internal/optim":      true,
}

// DataPlane reports whether the pass's package is subject to the
// data-plane-only analyzers. Packages under a testdata tree are
// always in scope so the analyzers' own analysistest suites exercise
// the data-plane rules (testdata is invisible to ./... sweeps).
func (p *Pass) DataPlane() bool {
	return dataPlanePackages[p.Path] || strings.Contains(p.Path, "/testdata/")
}

// Analyzers returns the full parallaxvet suite in its canonical
// reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetFold, DetSource, WrapSentinel, LockHeld}
}

// Run applies each analyzer to each loaded package and returns every
// finding (including malformed-pragma diagnostics recorded at load
// time), sorted by file, line, column, then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, pkg.BadPragmas...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				pragmas:  pkg.pragmas,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// rootIdent unwraps selectors, indexes, calls, derefs, and parens to
// the leftmost identifier of an expression: s.mu -> s,
// t.ns[m].ReshardVar -> t, (*p).field -> p. Returns nil when the
// expression is not rooted at an identifier (composite literals,
// results of standalone calls, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside the
// [pos, end] source interval. Objects with no position (nil, builtin)
// count as outside.
func declaredWithin(obj types.Object, pos, end token.Pos) bool {
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() >= pos && obj.Pos() <= end
}

// exprString renders a selector path for diagnostics (s.mu,
// f.series). Falls back to a placeholder for unprintable shapes.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.UnaryExpr:
		return exprString(x.X)
	default:
		return "<expr>"
	}
}

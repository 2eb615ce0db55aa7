// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface this repo's invariant checkers
// need. The full x/tools module is deliberately not vendored: the five
// vetkit analyzers use only a narrow slice of the API (an Analyzer with a
// Run function over a type-checked package, position-based diagnostics),
// and a stdlib-only framework keeps the module's dependency count at zero.
//
// The pieces:
//
//   - Analyzer / Pass / Diagnostic mirror their x/tools namesakes.
//   - Program carries whole-run state: every loaded package, the table of
//     //vetkit: function annotations (collected across ALL module packages,
//     so a hot-path call into another package can check the callee's
//     annotation), //vetkit:allow line suppressions, and a shared KV store
//     for analyzers that need cross-package aggregation (metriclint's
//     "registered exactly once").
//   - The loader (load.go) type-checks packages offline from `go list
//     -export` output, so the suite runs with no network and no module
//     downloads.
//
// Annotation vocabulary (doc comments on function declarations):
//
//	//vetkit:hotpath            function must be allocation-free (hotpath)
//	//vetkit:wal-before-apply   WAL append must precede store mutation
//
// Suppression (trailing comment on the offending line, or the line above):
//
//	//vetkit:allow <analyzer> [reason...]
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings, summaries and
	// //vetkit:allow suppressions.
	Name string
	// Doc is the one-paragraph description `vetkit -help` prints.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	diags []Diagnostic
}

// Reportf records a finding at pos unless a //vetkit:allow suppression for
// this analyzer covers the line (same line or the line directly above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Prog != nil && p.Prog.allowedAt(position, p.Analyzer.Name) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directives of the annotation vocabulary.
const (
	DirectiveHotPath        = "hotpath"
	DirectiveWALBeforeApply = "wal-before-apply"
)

// Program is the whole-run state shared by every pass.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// annotations maps a function's stable name — types.Func.FullName(),
	// e.g. "(*repro/internal/wal.Writer).Append" — to its //vetkit:
	// directives. Keyed by name rather than object identity because
	// dependency packages are materialized from export data, which builds
	// distinct (but identically named) objects from the source-checked ones.
	annotations map[string]map[string]bool

	// allows maps filename -> line -> analyzer names suppressed there.
	allows map[string]map[int]map[string]bool

	mu    sync.Mutex
	state map[string]any
}

// FuncAnnotated reports whether fn's declaration carries the directive
// (e.g. DirectiveHotPath), wherever in the module it was declared.
func (prog *Program) FuncAnnotated(fn *types.Func, directive string) bool {
	if fn == nil {
		return false
	}
	return prog.annotations[fn.FullName()][directive]
}

// State returns the value stored under key, building it with mk on first
// use. It lets an analyzer aggregate across packages (one Program spans the
// whole run) without package-level globals that would leak between runs.
func (prog *Program) State(key string, mk func() any) any {
	prog.mu.Lock()
	defer prog.mu.Unlock()
	if prog.state == nil {
		prog.state = map[string]any{}
	}
	v, ok := prog.state[key]
	if !ok {
		v = mk()
		prog.state[key] = v
	}
	return v
}

func (prog *Program) allowedAt(pos token.Position, analyzer string) bool {
	lines := prog.allows[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer] || lines[pos.Line-1][analyzer]
}

// collectAnnotations walks one package's syntax recording //vetkit:
// function directives and //vetkit:allow suppressions.
func (prog *Program) collectAnnotations(pkg *Package) {
	if prog.annotations == nil {
		prog.annotations = map[string]map[string]bool{}
	}
	if prog.allows == nil {
		prog.allows = map[string]map[int]map[string]bool{}
	}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				prog.recordAllow(c)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				d, ok := parseDirective(c.Text)
				if !ok || strings.HasPrefix(d, "allow ") || d == "allow" {
					continue
				}
				name := obj.FullName()
				if prog.annotations[name] == nil {
					prog.annotations[name] = map[string]bool{}
				}
				prog.annotations[name][strings.Fields(d)[0]] = true
			}
		}
	}
}

func (prog *Program) recordAllow(c *ast.Comment) {
	d, ok := parseDirective(c.Text)
	if !ok {
		return
	}
	fields := strings.Fields(d)
	if len(fields) < 2 || fields[0] != "allow" {
		return
	}
	pos := prog.Fset.Position(c.Pos())
	if prog.allows[pos.Filename] == nil {
		prog.allows[pos.Filename] = map[int]map[string]bool{}
	}
	if prog.allows[pos.Filename][pos.Line] == nil {
		prog.allows[pos.Filename][pos.Line] = map[string]bool{}
	}
	prog.allows[pos.Filename][pos.Line][fields[1]] = true
}

// parseDirective extracts the payload of a "//vetkit:..." comment.
func parseDirective(text string) (string, bool) {
	const prefix = "//vetkit:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	return strings.TrimSpace(text[len(prefix):]), true
}

// Result is the outcome of running one analyzer over a set of packages.
type Result struct {
	Analyzer string       `json:"analyzer"`
	Packages int          `json:"packages"`
	Files    int          `json:"files"`
	Findings []Diagnostic `json:"findings"`
}

// Run executes the analyzers over the program's packages and returns one
// Result per analyzer, findings ordered by position.
func Run(prog *Program, analyzers []*Analyzer) ([]Result, error) {
	results := make([]Result, 0, len(analyzers))
	for _, a := range analyzers {
		res := Result{Analyzer: a.Name, Findings: []Diagnostic{}}
		for _, pkg := range prog.Packages {
			if !pkg.Target {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			res.Packages++
			res.Files += len(pkg.Syntax)
			res.Findings = append(res.Findings, pass.diags...)
		}
		sort.Slice(res.Findings, func(i, j int) bool {
			a, b := res.Findings[i].Pos, res.Findings[j].Pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Column < b.Column
		})
		results = append(results, res)
	}
	return results, nil
}

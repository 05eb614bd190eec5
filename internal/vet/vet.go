// Package vet is the engine's project-specific invariant checker: a
// small go/analysis-style framework plus the camovet analyzer suite
// (DESIGN.md §14). The host engine rests on contracts that ordinary
// tests cannot see — atomically-published generation cells that must
// never be read plainly, determinism-critical packages that must never
// consult wall clocks or iterate maps into output, hot-path functions
// benchgate's allocs row holds to 0 allocs/op, the obs.CounterID
// exposition registry, the fault-point spec grammar — and this package
// encodes each one as a static analyzer run over the whole module on
// every commit (cmd/camovet, the required CI job).
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic) so the
// suite can migrate to the real multichecker mechanically if the
// dependency ever becomes available; it is self-contained today
// because the build environment is offline. Loading is go/types over
// `go list -deps -json` output (load.go), which type-checks the module
// and its entire dependency closure from source in one shared
// universe, so analyzers can compare types.Object identities across
// packages.
//
// Deliberate exceptions to an invariant are annotated in the source
// with `//camo:` directives, each carrying a reason string:
//
//	//camo:nondet <reason>   — allow wall-clock/goroutine/map-order
//	                           nondeterminism at this line or function
//	//camo:atomicok <reason> — allow a plain access to an
//	                           atomically-published field
//	//camo:alloc <reason>    — allow an allocating construct inside a
//	                           //camo:hotpath function
//	//camo:hotpath           — mark a function as covered by the
//	                           0 allocs/op contract (not an exception;
//	                           takes no reason)
//
// A directive that requires a reason but carries none is itself a
// finding: silent suppressions rot.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Exactly one of Run
// (invoked once per module package) or RunModule (invoked once with
// the whole module, for cross-package registries) is set.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and -run
	// filters.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string

	// Run analyzes one package.
	Run func(*Pass) error
	// RunModule analyzes the whole module at once.
	RunModule func(*ModulePass) error
}

// A Package is one type-checked module package.
type Package struct {
	// Path is the import path.
	Path string
	// Files are the package's non-test syntax trees, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
}

// A Module is the fully loaded analysis universe: every package of the
// target module, type-checked against a shared file set and type info
// so objects are comparable across packages.
type Module struct {
	// Dir is the module root directory (where DESIGN.md and go.mod
	// live).
	Dir string
	// Fset positions every file in the module and its dependencies.
	Fset *token.FileSet
	// Packages are the module's own packages in dependency order;
	// dependency packages are type-checked but not listed (analyzers
	// never report into code the module does not own).
	Packages []*Package
	// Info is the merged type information for every file of every
	// package (module and dependencies alike).
	Info *types.Info

	ann *annotations
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Module   *Module

	report func(Diagnostic)
}

// A ModulePass carries one analyzer's view of the whole module.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	report func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(diag(p.Module.Fset, p.Analyzer.Name, pos, format, args...))
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(diag(p.Module.Fset, p.Analyzer.Name, pos, format, args...))
}

func diag(fset *token.FileSet, name string, pos token.Pos, format string, args ...any) Diagnostic {
	position := fset.Position(pos)
	return Diagnostic{
		Analyzer: name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// RunAnalyzers applies every analyzer to the module and returns the
// findings sorted by position then analyzer name (deterministic output
// for golden files and cross-commit diffs).
func RunAnalyzers(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	report := func(d Diagnostic) { out = append(out, d) }
	for _, a := range analyzers {
		switch {
		case a.RunModule != nil:
			if err := a.RunModule(&ModulePass{Analyzer: a, Module: m, report: report}); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range m.Packages {
				if err := a.Run(&Pass{Analyzer: a, Pkg: pkg, Module: m, report: report}); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		default:
			return nil, fmt.Errorf("%s: analyzer has no Run or RunModule", a.Name)
		}
	}
	out = append(out, m.annotationErrors()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the full camovet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		Determinism,
		HotAlloc,
		ObsCounter,
		FaultPoint,
	}
}

// ---- //camo: annotations ----------------------------------------------

// directive is one parsed //camo: comment.
type directive struct {
	name   string // "nondet", "atomicok", "alloc", "hotpath"
	reason string
	pos    token.Pos
	line   int
	file   string
	// own reports whether the comment stands on its own line (covers
	// the next line) rather than trailing code (covers its own line).
	own bool
}

type annotations struct {
	// byLine indexes directives by file and covered line.
	byLine map[string]map[int][]*directive
	all    []*directive
}

var directiveRE = regexp.MustCompile(`^//camo:([a-z]+)(?:[ \t]+(.*))?$`)

// reasonRequired lists the directives that suppress a finding and so
// must say why.
var reasonRequired = map[string]bool{"nondet": true, "atomicok": true, "alloc": true}

var knownDirectives = map[string]bool{
	"nondet": true, "atomicok": true, "alloc": true, "hotpath": true,
}

// collectAnnotations indexes every //camo: directive in the module's
// files. src maps filenames to their raw bytes (used to decide whether
// a directive stands alone on its line, covering the following line,
// or trails code, covering its own).
func collectAnnotations(fset *token.FileSet, pkgs []*Package, src map[string][]byte) *annotations {
	ann := &annotations{byLine: make(map[string]map[int][]*directive)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := directiveRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Slash)
					d := &directive{
						name:   m[1],
						reason: strings.TrimSpace(m[2]),
						pos:    c.Slash,
						line:   pos.Line,
						file:   pos.Filename,
						own:    standsAlone(src[pos.Filename], pos.Offset, pos.Column),
					}
					ann.all = append(ann.all, d)
					lines := ann.byLine[d.file]
					if lines == nil {
						lines = make(map[int][]*directive)
						ann.byLine[d.file] = lines
					}
					lines[d.line] = append(lines[d.line], d)
					if d.own {
						lines[d.line+1] = append(lines[d.line+1], d)
					}
				}
			}
		}
	}
	return ann
}

// standsAlone reports whether the comment starting at offset (column
// col, 1-based) has only whitespace before it on its line.
func standsAlone(src []byte, offset, col int) bool {
	start := offset - (col - 1)
	if start < 0 || offset > len(src) {
		return false
	}
	for _, b := range src[start:offset] {
		if b != ' ' && b != '\t' {
			return false
		}
	}
	return true
}

// Annotated reports whether pos (or its enclosing function's doc
// comment) carries the named //camo: directive, returning its reason.
// Line-level lookup covers the directive's own line and, for
// standalone comments, the following line.
func (m *Module) Annotated(pos token.Pos, name string) (string, bool) {
	position := m.Fset.Position(pos)
	for _, d := range m.ann.byLine[position.Filename][position.Line] {
		if d.name == name {
			return d.reason, true
		}
	}
	return "", false
}

// FuncAnnotated reports whether fn's doc comment carries the named
// directive.
func (m *Module) FuncAnnotated(fn *ast.FuncDecl, name string) (string, bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		mm := directiveRE.FindStringSubmatch(c.Text)
		if mm != nil && mm[1] == name {
			return strings.TrimSpace(mm[2]), true
		}
	}
	return "", false
}

// annotationErrors turns malformed directives into findings: unknown
// directive names and exception directives without a reason string.
func (m *Module) annotationErrors() []Diagnostic {
	var out []Diagnostic
	for _, d := range m.ann.all {
		switch {
		case !knownDirectives[d.name]:
			out = append(out, diag(m.Fset, "camoannotation", d.pos,
				"unknown directive //camo:%s (known: alloc, atomicok, hotpath, nondet)", d.name))
		case reasonRequired[d.name] && d.reason == "":
			out = append(out, diag(m.Fset, "camoannotation", d.pos,
				"//camo:%s requires a reason string", d.name))
		case d.name == "hotpath" && d.reason != "":
			// A marker, not an exception; a trailing string is probably
			// a misplaced reason for a different directive.
			out = append(out, diag(m.Fset, "camoannotation", d.pos,
				"//camo:hotpath takes no argument (got %q)", d.reason))
		}
	}
	return out
}

// EnclosingFunc returns the FuncDecl in file that encloses pos, if any.
func EnclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= pos && pos <= fn.End() {
			return fn
		}
	}
	return nil
}

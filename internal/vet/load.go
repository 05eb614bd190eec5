// Module loading: `go list -deps -json` resolves the package graph
// (the go command owns build tags, module resolution and file
// selection), then go/parser + go/types type-check every package —
// dependencies included — from source into one shared FileSet and
// types.Info. One universe means a declared object is the same
// types.Object in every package that uses it, which is what lets the
// faultpoint and obscounter analyzers match a constant declared in
// internal/fault or internal/obs against its uses everywhere else
// without a facts serialization layer.
//
// Loading is offline and hermetic: no network, no export data, no
// build cache dependency beyond what `go list` itself consults.
// CGO_ENABLED=0 selects the pure-Go file sets of the few stdlib
// packages with native variants.
package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// listPackage is the subset of `go list -json` camovet consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct{ Path, Dir string }
}

// Load type-checks the packages matched by patterns (resolved in dir)
// plus their whole dependency closure, returning the module view the
// analyzers run over. Patterns default to ./... .
func Load(dir string, patterns ...string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return typeCheck(dir, pkgs)
}

// goList runs `go list -deps -json` and decodes the package stream,
// which arrives in dependency order (imports before importers).
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-json=Dir,ImportPath,Name,Standard,GoFiles,Imports,ImportMap,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("vet: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("vet: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &lp)
	}
	return pkgs, nil
}

// typeCheck parses and type-checks pkgs in order into one Module.
func typeCheck(dir string, pkgs []*listPackage) (*Module, error) {
	fset := token.NewFileSet()
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	src := make(map[string][]byte)

	m := &Module{Fset: fset, Info: info}
	for _, lp := range pkgs {
		if lp.ImportPath == "unsafe" || len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("vet: %v", err)
			}
			f, err := parser.ParseFile(fset, path, data, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("vet: parsing %s: %v", path, err)
			}
			files = append(files, f)
			src[path] = data
		}
		conf := types.Config{
			Importer: &depImporter{imports: lp.ImportMap, typed: typed},
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("vet: type-checking %s: %v", lp.ImportPath, err)
		}
		typed[lp.ImportPath] = tpkg
		if !lp.Standard {
			if lp.Module != nil && lp.Module.Dir != "" {
				m.Dir = lp.Module.Dir
			}
			m.Packages = append(m.Packages, &Package{
				Path:  lp.ImportPath,
				Files: files,
				Types: tpkg,
			})
		}
	}
	if m.Dir == "" {
		m.Dir = dir
	}
	m.ann = collectAnnotations(fset, m.Packages, src)
	return m, nil
}

// depImporter resolves imports against the already-type-checked
// universe, honoring the package's go list ImportMap (vendoring and
// test-variant renames).
type depImporter struct {
	imports map[string]string
	typed   map[string]*types.Package
}

func (i *depImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := i.imports[path]; ok {
		path = mapped
	}
	if p, ok := i.typed[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("vet: import %q not in dependency-ordered universe", path)
}

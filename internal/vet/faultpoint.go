package vet

import (
	"errors"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"camouflage/internal/fault"
)

// FaultPoint validates the deterministic fault-injection surface
// (DESIGN.md §13, §14). A chaos failure must reproduce from its spec
// string alone, which only holds if every injection point is a known,
// spellable, documented name:
//
//   - every fault.Point constant has a unique string value;
//   - every value round-trips through the real spec grammar
//     (fault.ParseSpec), so `-faults <point>=1` can always arm it; in
//     this module that also means the value is in the fault catalog;
//   - every check site (fault.Fire / ErrAt / SleepAt / PanicAt /
//     Corrupt) names a declared Point constant — an ad-hoc string
//     literal at a check site is an unregistered point no spec can
//     target reliably;
//   - every declared Point is threaded through at least one check site
//     (a dead point is a documented capability that does not exist);
//   - every Point value is listed in the DESIGN.md §13 injection-point
//     table, so the operator-facing catalog cannot drift from the code.
var FaultPoint = &Analyzer{
	Name: "faultpoint",
	Doc: "checks fault.Point uniqueness, spec-grammar validity, " +
		"registered use at check sites and DESIGN.md §13 listing",
	RunModule: runFaultPoint,
}

// faultCheckFuncs are the injection-point entry points whose first
// argument must be a declared Point constant.
var faultCheckFuncs = map[string]bool{
	"Fire": true, "ErrAt": true, "SleepAt": true, "PanicAt": true, "Corrupt": true,
}

func runFaultPoint(pass *ModulePass) error {
	m := pass.Module
	faultPkg := findPackage(m, "fault", "Point")
	if faultPkg == nil {
		return nil // module has no fault registry; nothing to check
	}
	scope := faultPkg.Types.Scope()
	pointType, ok := scope.Lookup("Point").(*types.TypeName)
	if !ok {
		return nil
	}

	// Collect declared Point constants.
	var points []faultPointEntry
	pointObjs := make(map[types.Object]int)
	byValue := make(map[string]*types.Const)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Type() != pointType.Type() {
			continue
		}
		v := constant.StringVal(c.Val())
		pointObjs[c] = len(points)
		points = append(points, faultPointEntry{obj: c, value: v})
		if prev, dup := byValue[v]; dup {
			pass.Reportf(c.Pos(), "fault point %s duplicates the name %q of %s", c.Name(), v, prev.Name())
		} else {
			byValue[v] = c
		}
	}

	// Grammar: every name must arm through the real spec parser. The
	// parser also refuses a name outside its catalog, which lists the
	// points of this module's own fault package only.
	host := faultPkg.Types.Path() == reflect.TypeOf(fault.Point("")).PkgPath()
	for _, p := range points {
		_, err := fault.ParseSpec(p.value + "=1")
		if errors.Is(err, fault.ErrUnknownPoint) {
			if host {
				pass.Reportf(p.obj.Pos(),
					"fault point %s (%q) is missing from the fault catalog, so no -faults plan can arm it", p.obj.Name(), p.value)
			}
			err = nil
		}
		if err != nil || strings.ContainsAny(p.value, "=,: \t") || p.value == "" || p.value == "seed" {
			pass.Reportf(p.obj.Pos(),
				"fault point %s name %q is not addressable by the -faults spec grammar", p.obj.Name(), p.value)
		}
	}

	// Check sites: every Fire/ErrAt/SleepAt/PanicAt/Corrupt call in the
	// module (outside the fault package itself) must name a declared
	// constant; and every constant must be threaded somewhere.
	threaded := make(map[types.Object]bool)
	for _, pkg := range m.Packages {
		inFaultPkg := pkg == faultPkg
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := m.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() != faultPkg.Types || !faultCheckFuncs[fn.Name()] {
					return true
				}
				if len(call.Args) == 0 {
					return true
				}
				arg := unparen(call.Args[0])
				if obj := usedObject(m.Info, arg); obj != nil {
					if _, isPoint := pointObjs[obj]; isPoint {
						threaded[obj] = true
						return true
					}
				}
				if inFaultPkg {
					return true // the registry's own plumbing takes any Point
				}
				pass.Reportf(arg.Pos(),
					"fault.%s argument must be a declared fault.Point constant, not %s (register the point so spec strings can arm it)",
					fn.Name(), describeExpr(arg))
				return true
			})
		}
	}
	for _, p := range points {
		if !threaded[p.obj] {
			pass.Reportf(p.obj.Pos(),
				"fault point %s (%q) is declared but never threaded through a check site", p.obj.Name(), p.value)
		}
	}

	// DESIGN.md §13 listing.
	if len(points) > 0 {
		checkDesignListing(pass, points)
	}
	return nil
}

// faultPointEntry pairs a declared Point constant with its string
// value.
type faultPointEntry struct {
	obj   *types.Const
	value string
}

// checkDesignListing requires every point name to appear in the §13
// section of the module's DESIGN.md.
func checkDesignListing(pass *ModulePass, points []faultPointEntry) {
	m := pass.Module
	data, err := os.ReadFile(filepath.Join(m.Dir, "DESIGN.md"))
	if err != nil {
		pass.Reportf(points[0].obj.Pos(), "cannot read DESIGN.md to verify the §13 fault-point table: %v", err)
		return
	}
	section := sectionText(string(data), "§13")
	if section == "" {
		pass.Reportf(points[0].obj.Pos(), "DESIGN.md has no §13 section listing the fault points")
		return
	}
	for _, p := range points {
		if !strings.Contains(section, p.value) {
			pass.Reportf(p.obj.Pos(),
				"fault point %s (%q) is missing from the DESIGN.md §13 injection-point table", p.obj.Name(), p.value)
		}
	}
}

// sectionText extracts the body of the `## §N …` section.
func sectionText(doc, marker string) string {
	lines := strings.Split(doc, "\n")
	var b strings.Builder
	in := false
	for _, line := range lines {
		if strings.HasPrefix(line, "## ") {
			in = strings.Contains(line, marker)
			continue
		}
		if in {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// describeExpr names the offending argument shape for the diagnostic.
func describeExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.BasicLit:
		return "string literal " + e.Value
	case *ast.CallExpr:
		return "a conversion/call expression"
	case *ast.Ident:
		return "variable " + e.Name
	default:
		return "a non-constant expression"
	}
}

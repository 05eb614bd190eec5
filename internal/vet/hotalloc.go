package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc is the compile-time face of benchgate's allocs row (the 0
// allocs/op contract, DESIGN.md §5, §14): functions marked //camo:hotpath
// run inside the steady-state execution loop, where a single heap
// allocation per op shows up as a throughput cliff and fails the bench
// job — hours after the commit that introduced it. This analyzer moves
// that tripwire to vet time by flagging the allocating constructs the
// compiler cannot optimize away inside marked functions:
//
//   - make / new / append and slice-, map- or &T-composite literals;
//   - fmt.* calls (interface boxing plus formatting buffers);
//   - string concatenation and string<->[]byte conversions;
//   - interface boxing: passing, assigning, converting or returning a
//     concrete value where an interface is expected;
//   - closures, defer and go statements.
//
// A cold sub-path inside a hot function (error handling, a once-per-run
// fill) carries //camo:alloc <reason> on the offending line.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags heap allocations, interface boxing and fmt calls in " +
		"//camo:hotpath functions",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		f := file
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, hot := pass.Module.FuncAnnotated(fn, "hotpath"); !hot {
				continue
			}
			checkHotFunc(pass, f, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, f *ast.File, fn *ast.FuncDecl) {
	m := pass.Module
	report := func(pos token.Pos, format string, args ...any) {
		if _, ok := m.Annotated(pos, "alloc"); ok {
			return
		}
		args = append(args, fn.Name.Name)
		pass.Reportf(pos, format+" in //camo:hotpath func %s (move it off the hot path or annotate //camo:alloc <reason>)", args...)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, report, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.CompositeLit:
			switch m.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(m.Info.TypeOf(n)) {
				report(n.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			report(n.Pos(), "function literal may capture and allocate")
			return false // don't descend: one finding per closure
		case *ast.DeferStmt:
			report(n.Pos(), "defer allocates a frame")
		case *ast.GoStmt:
			report(n.Pos(), "goroutine spawn allocates")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkBoxing(pass, report, m.Info.TypeOf(n.Lhs[i]), rhs)
				}
			}
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, report, fn, n)
		}
		return true
	})
}

// checkHotCall flags the allocating builtins, fmt calls, allocating
// conversions and call-argument interface boxing.
func checkHotCall(pass *Pass, report func(token.Pos, string, ...any), call *ast.CallExpr) {
	info := pass.Module.Info

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			report(call.Pos(), "make allocates")
			return
		case "new":
			report(call.Pos(), "new allocates")
			return
		case "append":
			report(call.Pos(), "append may grow and allocate")
			return
		}
	}

	// Conversions: T(x) with an allocating representation change or an
	// interface target.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		switch {
		case isString(to) && !isString(from) && from != nil && !isNumeric(from):
			report(call.Pos(), "conversion to string allocates")
		case isByteSlice(to) && isString(from):
			report(call.Pos(), "string-to-[]byte conversion allocates")
		case types.IsInterface(to) && from != nil && !types.IsInterface(from):
			report(call.Pos(), "conversion to interface boxes the value")
		}
		return
	}

	// fmt.* (and any function of package fmt): boxing plus buffers.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			report(call.Pos(), "fmt.%s allocates", fn.Name())
			return
		}
	}

	// Interface boxing at call arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, report, param, arg)
	}
}

// checkBoxing reports when a concrete value meets an interface-typed
// slot.
func checkBoxing(pass *Pass, report func(token.Pos, string, ...any), to types.Type, expr ast.Expr) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	from := pass.Module.Info.TypeOf(expr)
	if from == nil || types.IsInterface(from) {
		return
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, isPtr := from.Underlying().(*types.Pointer); isPtr {
		// Boxing a pointer stores the pointer word directly: no
		// allocation beyond the (possibly shared) iface header.
		return
	}
	report(expr.Pos(), "interface boxing of concrete value")
}

func checkReturnBoxing(pass *Pass, report func(token.Pos, string, ...any), fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fn.Type.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, fld := range fn.Type.Results.List {
		t := pass.Module.Info.TypeOf(fld.Type)
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // multi-value call spread; skip
	}
	for i, r := range ret.Results {
		checkBoxing(pass, report, resultTypes[i], r)
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

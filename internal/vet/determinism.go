package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the byte-reproducibility contract (DESIGN.md §9,
// §14) inside the determinism-critical packages — the ones whose
// behavior feeds guest-visible state or serialized snapshots, where two
// runs with equal inputs must be bit-identical:
//
//   - no wall-clock reads (time.Now, Since, After, NewTimer, …);
//   - no math/rand (seeded or not: a shared PRNG another goroutine can
//     advance breaks replay);
//   - no goroutine spawns (the deterministic scheduler owns
//     interleaving; parallel modes are deliberate, annotated
//     exceptions);
//   - no map iteration whose body does order-sensitive work (key
//     collection for sorting, commutative reductions and delete() are
//     fine; anything else must sort first or carry an annotation).
//
// Deliberate exceptions carry //camo:nondet <reason> on the line, the
// statement above, or the enclosing function's doc comment.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock reads, math/rand, goroutine spawns and " +
		"order-sensitive map iteration in determinism-critical packages",
	Run: runDeterminism,
}

// deterministicPkgs are the critical packages, matched by the last
// element of the import path: every package that holds machine state.
var deterministicPkgs = map[string]bool{
	"cpu": true, "mmu": true, "mem": true, "kernel": true,
	"insn": true, "snapshot": true, "hyp": true, "pac": true,
	"qarma": true, "boot": true, "module": true,
}

// wallClockFuncs are the time package functions whose results differ
// across runs.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func runDeterminism(pass *Pass) error {
	path := pass.Pkg.Path
	if !deterministicPkgs[path[strings.LastIndex(path, "/")+1:]] {
		return nil
	}
	m := pass.Module
	for _, file := range pass.Pkg.Files {
		f := file
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, f, n)
			case *ast.GoStmt:
				if !excused(m, f, n.Pos(), "nondet") {
					pass.Reportf(n.Pos(),
						"goroutine spawn in determinism-critical package %s: scheduling order is not reproducible (annotate //camo:nondet <reason> if deliberate)",
						pass.Pkg.Types.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// checkNondetCall flags wall-clock reads and any use of math/rand.
func checkNondetCall(pass *Pass, f *ast.File, call *ast.CallExpr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Module.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	var what string
	switch fn.Pkg().Path() {
	case "time":
		if !wallClockFuncs[fn.Name()] {
			return
		}
		what = "wall-clock read time." + fn.Name()
	case "math/rand", "math/rand/v2":
		what = fn.Pkg().Path() + "." + fn.Name()
	default:
		return
	}
	if excused(pass.Module, f, call.Pos(), "nondet") {
		return
	}
	pass.Reportf(call.Pos(),
		"%s in determinism-critical package %s breaks byte-reproducibility (annotate //camo:nondet <reason> if host-side only)",
		what, pass.Pkg.Types.Name())
}

// checkMapRange flags iteration over a map unless the body is
// order-insensitive or the loop is annotated.
func checkMapRange(pass *Pass, f *ast.File, rng *ast.RangeStmt) {
	t := pass.Module.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if orderInsensitiveBody(pass.Module.Info, rng) {
		return
	}
	if excused(pass.Module, f, rng.Pos(), "nondet") {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration with an order-sensitive body in determinism-critical package %s: collect and sort keys first, or annotate //camo:nondet <reason>",
		pass.Pkg.Types.Name())
}

// orderInsensitiveBody reports whether every statement of a map-range
// body commutes across iteration orders: collecting into a slice or
// map for later (sorted) use, commutative accumulation (+=, |=, ^=,
// ++), counting, guarded variants of those, early exit with a literal,
// per-element stores through the range variables, and delete(). Calls
// other than append/delete/len/cap make a body opaque: the analyzer
// cannot see whether the callee is commutative, so such loops need a
// //camo:nondet annotation or a sorted-key rewrite.
func orderInsensitiveBody(info *types.Info, rng *ast.RangeStmt) bool {
	vars := make(map[string]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			vars[id.Name] = true
		}
	}
	return stmtsOrderInsensitive(info, rng.Body.List, vars)
}

func stmtsOrderInsensitive(info *types.Info, stmts []ast.Stmt, rangeVars map[string]bool) bool {
	for _, stmt := range stmts {
		if !orderInsensitiveStmt(info, stmt, rangeVars) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(info *types.Info, stmt ast.Stmt, rangeVars map[string]bool) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		return orderInsensitiveAssign(info, s, rangeVars)
	case *ast.IncDecStmt:
		return true
	case *ast.IfStmt:
		// A guard commutes if its pieces do: call-free condition,
		// order-insensitive branches. (Early exits with literals are
		// exists-checks.)
		if s.Init != nil && !orderInsensitiveStmt(info, s.Init, rangeVars) {
			return false
		}
		if !callFree(s.Cond) {
			return false
		}
		if !stmtsOrderInsensitive(info, s.Body.List, rangeVars) {
			return false
		}
		if s.Else != nil {
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				return stmtsOrderInsensitive(info, blk.List, rangeVars)
			}
			return orderInsensitiveStmt(info, s.Else, rangeVars)
		}
		return true
	case *ast.ReturnStmt:
		// return true / return false / return nil / return 0: an
		// exists-check, the same answer in any order. Returning a
		// range variable or computed value leaks iteration order.
		for _, r := range s.Results {
			if !literalResult(r) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		// continue commutes; break leaks which element came first.
		return s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
				return true
			}
		}
		return false
	}
	return false
}

func orderInsensitiveAssign(info *types.Info, s *ast.AssignStmt, rangeVars map[string]bool) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN:
		// x += v / x |= v: commutative, associative folds — but only
		// when the added value is call-free (a method call could do
		// order-sensitive work beyond the fold), and only for numeric
		// and bitwise types: += on a string is concatenation, which is
		// exactly the iteration-order leak this rule exists to stop.
		if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(info.TypeOf(s.Lhs[0])) {
			return false
		}
		for _, r := range s.Rhs {
			if !callFree(r) {
				return false
			}
		}
		return true
	case token.DEFINE:
		// cp := t — a loop-local copy; order-sensitivity is decided by
		// what later statements do with it.
		for _, r := range s.Rhs {
			if !callFree(r) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			// x = append(x, …): order-insensitive collection; the
			// consumer sorts (unsorted use would fail the byte-parity
			// tests loudly).
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					return true
				}
			}
			// m2[k] = v: map insertion order is irrelevant to map
			// contents.
			if _, ok := s.Lhs[0].(*ast.IndexExpr); ok {
				return callFree(s.Rhs[0])
			}
			// t.State = v through a range variable: each iteration
			// stores to its own element.
			if rootedInVars(s.Lhs[0], rangeVars) {
				return callFree(s.Rhs[0])
			}
		}
		return false
	}
	return false
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// callFree reports whether e contains no function calls other than the
// pure builtins len and cap.
func callFree(e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return pure
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			return pure
		}
		pure = false
		return false
	})
	return pure
}

// literalResult reports whether r is a constant literal or one of the
// universe constants (true/false/nil/iota-free idents).
func literalResult(r ast.Expr) bool {
	switch r := unparen(r).(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return r.Name == "true" || r.Name == "false" || r.Name == "nil"
	}
	return false
}

// rootedInVars reports whether the assignable expression is a
// selector/index chain rooted at one of the range variables.
func rootedInVars(e ast.Expr, vars map[string]bool) bool {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return vars[x.Name]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// excused reports whether pos carries the named line-level directive or
// sits in a function whose doc comment carries it.
func excused(m *Module, file *ast.File, pos token.Pos, directive string) bool {
	if _, ok := m.Annotated(pos, directive); ok {
		return true
	}
	if fn := EnclosingFunc(file, pos); fn != nil {
		if _, ok := m.FuncAnnotated(fn, directive); ok {
			return true
		}
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/types"
)

// AllocFree verifies the static half of the `//outran:allocfree`
// contract: a function so annotated — and everything it statically
// calls within the module — must contain no obvious allocation syntax.
// Flagged constructs:
//
//   - make and new (direct heap requests)
//   - append (may grow its backing array)
//   - function literals that capture variables (closure allocation)
//   - interface boxing: a concrete value that is not pointer-shaped
//     passed where an interface is expected (including panic's
//     argument) or converted to an interface type
//
// Amortized patterns — capacity-guarded scratch growth, cold error and
// panic paths — are justified per site with `//outran:allocok` and a
// rationale. What this pass cannot see (calls through function values
// or interface methods, allocations the compiler introduces) is
// covered dynamically by the AllocsPerRun suites and statically by the
// escape-analysis check (RunEscapeCheck), which drives the compiler's
// own `-gcflags=-m` verdicts over the same annotated bodies.
func AllocFree() *Analyzer {
	a := &Analyzer{
		Name:      "allocfree",
		Doc:       "verifies //outran:allocfree functions (and their static callees) contain no allocation syntax",
		Directive: "allocok",
	}
	var cache indexCache
	a.Run = func(p *Pass) {
		idx := cache.get(p.Module())
		for _, fi := range idx.checkedIn(p.Pkg) {
			checkAllocFreeBody(p, fi)
		}
	}
	return a
}

// checkAllocFreeBody scans one closure member's body for allocation
// syntax.
func checkAllocFreeBody(p *Pass, fi *funcInfo) {
	if fi.decl.Body == nil {
		return
	}
	ctx := ""
	if fi.Name() != fi.root {
		ctx = " (in the //outran:allocfree closure of " + fi.root + ")"
	}
	report := func(n ast.Node, format string, args ...interface{}) {
		if p.Justified(fi.file, n.Pos()) {
			return
		}
		p.Reportf(n.Pos(), format+ctx+"; justify amortized or cold-path allocation with //outran:allocok", args...)
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(p.Pkg, fi.decl, node) {
				report(node, "closure captures variables and may heap-allocate in %s", fi.Name())
			}
			// Still scan the literal's body (it runs on the same path).
			return true
		case *ast.CallExpr:
			checkAllocCall(p, fi, node, report)
		}
		return true
	})
}

// checkAllocCall classifies one call inside an allocfree body.
func checkAllocCall(p *Pass, fi *funcInfo, call *ast.CallExpr, report func(ast.Node, string, ...interface{})) {
	// Builtin allocators.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.Pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call, "make allocates in %s", fi.Name())
			case "new":
				report(call, "new allocates in %s", fi.Name())
			case "append":
				report(call, "append may grow its backing array in %s", fi.Name())
			case "panic":
				if len(call.Args) == 1 && boxes(p.Pkg, call.Args[0]) {
					report(call.Args[0], "panic argument boxes into an interface in %s", fi.Name())
				}
			}
			return
		}
	}
	tv, ok := p.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	// Explicit conversion to an interface type: any(x), io.Reader(r).
	if tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) && boxes(p.Pkg, call.Args[0]) {
			report(call, "conversion boxes %s into %s in %s",
				typeStr(p.Pkg, p.Pkg.Info.TypeOf(call.Args[0])), typeStr(p.Pkg, tv.Type), fi.Name())
		}
		return
	}
	// Interface-typed parameters box concrete arguments.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if ok && call.Ellipsis == 0 {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if pt != nil && types.IsInterface(pt) && boxes(p.Pkg, arg) {
				report(arg, "argument boxes %s into %s in %s",
					typeStr(p.Pkg, p.Pkg.Info.TypeOf(arg)), typeStr(p.Pkg, pt), fi.Name())
			}
		}
	}
}

// boxes reports whether passing arg where an interface is expected
// performs an interface conversion that may allocate: the argument's
// static type is concrete (and not untyped nil) and not pointer-shaped.
// A pointer, func, map or channel is stored in the interface's data
// word as it is, so converting one copies nothing to the heap.
func boxes(pkg *Package, arg ast.Expr) bool {
	at := pkg.Info.TypeOf(arg)
	if at == nil || types.IsInterface(at) {
		return false
	}
	switch u := at.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return false
	}
	return true
}

// typeStr renders a type relative to the package under analysis.
func typeStr(pkg *Package, t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, types.RelativeTo(pkg.Types))
}

// capturesOuter reports whether the function literal references a
// variable declared in the enclosing declaration outside the literal —
// the captures that force the closure (and captured locals) onto the
// heap when it escapes.
func capturesOuter(pkg *Package, decl *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= decl.Pos() && v.Pos() < lit.Pos() {
			captured = true
		}
		return true
	})
	return captured
}

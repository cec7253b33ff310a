package main

import (
	"go/ast"
	"go/types"
)

// runAtomicWord flags operations that copy or alias values containing
// sync/atomic types. HydraDB's correctness story leans on guardian words
// and lease timestamps being touched only through atomic operations on the
// one true word (§4.2.3); a struct copy silently forks that word, and every
// subsequent CAS races against a ghost. The Go memory model makes the same
// point: atomics protect an address, not a value.
//
// Flagged, in internal/ packages:
//   - assignments whose right-hand side reads an existing variable, field,
//     or element whose type contains an atomic
//   - range statements binding such a value by copy
//   - function parameters, results, and receivers passing such a type by
//     value
//   - call arguments passing such a value by copy
//   - unsafe.Pointer conversions aliasing such a value
//   - function-style sync/atomic calls (atomic.AddUint64(&x, 1)) outside
//     tests: every atomic word is a typed value (atomic.Uint64, ...), which
//     Go gives no plain load or store, so a word cannot be read atomically
//     in one place and plainly in another
func runAtomicWord(p *Package, r *Reporter) {
	if !p.isInternal() {
		return
	}
	cache := map[types.Type]bool{}
	has := func(t types.Type) bool { return t != nil && containsAtomic(t, cache, nil) }
	// isCopyRead: e is a *value* read of an existing variable/field/element
	// (not a type expression like the argument of new(atomic.Int64)).
	isCopyRead := func(e ast.Expr) bool {
		if !isValueRead(e) {
			return false
		}
		tv, ok := p.Info.Types[e]
		return ok && tv.IsValue()
	}

	for _, f := range p.Files {
		test := p.isTestFile(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if isCopyRead(rhs) && has(p.Info.TypeOf(rhs)) {
						r.report("atomic-word", rhs.Pos(),
							"assignment copies a value containing %s by value; keep a pointer instead (§4.2.3)",
							atomicDesc(p.Info.TypeOf(rhs), cache))
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil && has(p.Info.TypeOf(n.Value)) {
					r.report("atomic-word", n.Value.Pos(),
						"range copies elements containing %s by value; range over indices or pointers (§4.2.3)",
						atomicDesc(p.Info.TypeOf(n.Value), cache))
				}
			case *ast.FuncDecl:
				checkFieldList(p, r, n.Recv, has, cache)
				checkFieldList(p, r, n.Type.Params, has, cache)
				checkFieldList(p, r, n.Type.Results, has, cache)
			case *ast.FuncLit:
				checkFieldList(p, r, n.Type.Params, has, cache)
				checkFieldList(p, r, n.Type.Results, has, cache)
			case *ast.CallExpr:
				if !test && isAtomicPkgCall(p, n) {
					r.report("atomic-word", n.Pos(),
						"function-style sync/atomic call on a plain word; declare the word as a typed atomic value (atomic.Uint64, ...) so no plain access to it compiles")
				}
				if isUnsafePointerConv(p, n) {
					if arg := atomicAddrArg(p, n, has); arg != nil {
						r.report("atomic-word", n.Pos(),
							"unsafe.Pointer aliases a value containing %s; atomics protect an address, never alias it (§4.2.3)",
							atomicDesc(p.Info.TypeOf(arg), cache))
					}
					return true
				}
				if isConversion(p, n) {
					return true // conversions don't copy field-by-field semantics we care about beyond assignment
				}
				for _, arg := range n.Args {
					if isCopyRead(arg) && has(p.Info.TypeOf(arg)) {
						r.report("atomic-word", arg.Pos(),
							"call passes a value containing %s by value; pass a pointer (§4.2.3)",
							atomicDesc(p.Info.TypeOf(arg), cache))
					}
				}
			}
			return true
		})
	}
}

// checkFieldList flags by-value parameters/results/receivers whose type
// contains an atomic.
func checkFieldList(p *Package, r *Reporter, fl *ast.FieldList, has func(types.Type) bool, cache map[types.Type]bool) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if has(t) {
			r.report("atomic-word", field.Type.Pos(),
				"signature passes a value containing %s by value; use a pointer (§4.2.3)",
				atomicDesc(t, cache))
		}
	}
}

// isValueRead reports whether e reads an existing addressable value (as
// opposed to constructing a fresh one, taking an address, or calling). Only
// such reads are copies of a *shared* atomic word.
func isValueRead(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name != "_"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return isValueRead(e.X)
	}
	return false
}

func isConversion(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func isUnsafePointerConv(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

// atomicAddrArg returns the operand x when the call is unsafe.Pointer(&x)
// (possibly parenthesized) and x's type contains an atomic.
func atomicAddrArg(p *Package, call *ast.CallExpr, has func(types.Type) bool) ast.Expr {
	if len(call.Args) != 1 {
		return nil
	}
	arg := call.Args[0]
	for {
		if par, ok := arg.(*ast.ParenExpr); ok {
			arg = par.X
			continue
		}
		break
	}
	if un, ok := arg.(*ast.UnaryExpr); ok && un.Op.String() == "&" {
		if has(p.Info.TypeOf(un.X)) {
			return un.X
		}
	}
	return nil
}

// containsAtomic reports whether t embeds (transitively, through struct
// fields and array elements) any named type from sync/atomic. path, when
// non-nil, accumulates the field chain for diagnostics.
func containsAtomic(t types.Type, cache map[types.Type]bool, path *[]string) bool {
	if v, ok := cache[t]; ok && path == nil {
		return v
	}
	res := containsAtomicUncached(t, cache, path)
	cache[t] = res
	return res
}

func containsAtomicUncached(t types.Type, cache map[types.Type]bool, path *[]string) bool {
	t = types.Unalias(t)
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			if path != nil {
				*path = append(*path, "atomic."+obj.Name())
			}
			return true
		}
		// Guard recursive types: mark in-progress as false; a type cannot
		// contain itself by value anyway.
		cache[t] = false
		return containsAtomic(named.Underlying(), cache, path)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsAtomic(u.Field(i).Type(), cache, path) {
				if path != nil {
					*path = append(*path, u.Field(i).Name())
				}
				return true
			}
		}
	case *types.Array:
		return containsAtomic(u.Elem(), cache, path)
	}
	return false
}

// atomicDesc names the atomic type buried in t, e.g. "atomic.Uint64".
func atomicDesc(t types.Type, cache map[types.Type]bool) string {
	if t == nil {
		return "an atomic"
	}
	var path []string
	if !containsAtomic(t, map[types.Type]bool{}, &path) || len(path) == 0 {
		return "an atomic"
	}
	return path[0]
}

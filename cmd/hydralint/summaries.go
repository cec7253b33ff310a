package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function mutation summaries — the interprocedural
// layer the spec-order flow pass resolves call sites against. A summary
// describes a function's externally visible writes to its inputs (receiver =
// index -1, parameters = 0..n-1) so a caller's flow pass can step over the
// call instead of stopping at it. Summaries are memoized on the Program,
// keyed by types.Func.FullName(), and follow calls into other summarized
// functions with a cycle guard (a recursive call sees an empty summary). The
// AST helpers at the end — nominal word identities and sync/atomic call
// classification — are shared by every pass.

// exprRoot returns the leftmost identifier of a selector/index/deref chain.
func exprRoot(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil, false
			}
			e = x.X
		default:
			return nil, false
		}
	}
}

// mutateSummary records a function's externally visible writes, for the
// spec-order flow pass:
//
//	writesInputs    the function writes *through* this pointer/slice input
//	                (element stores, field stores, copy/clear, or handing it
//	                to a callee that does) — EncodeItem writes its dst
//	writesAtInputs  the function writes a //hydralint:region-marked base at
//	                an offset derived from this input (plain stores, writing
//	                sync/atomic operations, or clear/copy over a region
//	                window) — WordArea.Store writes the word area at idx,
//	                Arena.Free clears the byte region at off
//	publishes       the function performs a publication: stores or forwards
//	                a hydralint:publish constant, is hydralint:publishes
//	                marked, or transitively calls a publisher
//	unpublishes     the inverse: the function retracts visibility by storing
//	                or forwarding a hydralint:unpublish constant, carries the
//	                hydralint:unpublishes marker, or calls an unpublisher —
//	                Mailbox.Consume retires a delivered slot
//	regionAtomicWrite  the function (or a callee) performs a writing
//	                sync/atomic op on a //hydralint:region-marked word — the
//	                store that could act as a release fence for publication
type mutateSummary struct {
	writesInputs      map[int]bool
	writesAtInputs    map[int]bool
	publishes         bool
	unpublishes       bool
	regionAtomicWrite bool
}

func (prog *Program) mutateSummaryFor(name string) *mutateSummary {
	if s, done := prog.mutateSums[name]; done {
		if s == nil {
			return &mutateSummary{} // recursion: optimistic fixpoint
		}
		return s
	}
	prog.mutateSums[name] = nil
	info, ok := prog.funcs[name]
	if !ok {
		s := &mutateSummary{}
		prog.mutateSums[name] = s
		return s
	}
	m := prog.markersFor()
	s := &mutateSummary{writesInputs: map[int]bool{}, writesAtInputs: map[int]bool{}}
	if m.publishesFuncs[name] {
		s.publishes = true
	}
	if m.unpublishesFuncs[name] {
		s.unpublishes = true
	}

	// Shallow local taint: one in-source-order pass mapping each local to the
	// inputs its initializer mentions, so an offset that flows through a local
	// (size := classSizes[classOf(n)]) still attributes region writes to its
	// input. Deliberately not a fixpoint: taint that only flows backward
	// through a loop is missed, an under-approximation that avoids false
	// positives on hash-derived indices.
	taint := map[*types.Var]map[int]bool{}
	inputsOf := func(exprs ...ast.Expr) map[int]bool {
		out := map[int]bool{}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			ast.Inspect(e, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					if idx, isInput := inputIndexOf(info, id); isInput {
						out[idx] = true
					} else if v, isVar := info.Pkg.Info.Uses[id].(*types.Var); isVar {
						for idx := range taint[v] {
							out[idx] = true
						}
					}
				}
				return true
			})
		}
		return out
	}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := unparen(lhs).(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			v, isVar := info.Pkg.Info.Defs[id].(*types.Var)
			if !isVar {
				if v, isVar = info.Pkg.Info.Uses[id].(*types.Var); !isVar {
					continue
				}
			}
			var from map[int]bool
			if len(as.Lhs) == len(as.Rhs) {
				from = inputsOf(as.Rhs[i])
			} else {
				from = inputsOf(as.Rhs...)
			}
			if len(from) > 0 {
				taint[v] = from
			}
		}
		return true
	})

	inputOf := func(e ast.Expr) (int, bool) {
		root, ok := exprRoot(e)
		if !ok {
			return 0, false
		}
		return inputIndexOf(info, root)
	}
	markWrite := func(e ast.Expr) {
		if idx, ok := inputOf(e); ok {
			s.writesInputs[idx] = true
		}
	}
	// markRegionWrite attributes a write whose target is base[...] (or a
	// window of it) to the inputs the offset expressions mention, when base is
	// region-marked.
	markRegionWrite := func(target ast.Expr) {
		switch t := unparen(target).(type) {
		case *ast.IndexExpr:
			if key, ok := wordID(info.Pkg, t.X); ok && m.regionKeys[key] {
				for idx := range inputsOf(t.Index) {
					s.writesAtInputs[idx] = true
				}
			}
		case *ast.SliceExpr:
			if key, ok := wordID(info.Pkg, t.X); ok && m.regionKeys[key] {
				for idx := range inputsOf(t.Low, t.High, t.Max) {
					s.writesAtInputs[idx] = true
				}
			}
		}
	}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch unparen(lhs).(type) {
				case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
					markWrite(lhs)
					markRegionWrite(lhs)
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if _, builtin := info.Pkg.Info.Uses[id].(*types.Builtin); builtin {
					switch id.Name {
					case "copy", "clear":
						if len(n.Args) > 0 {
							markWrite(n.Args[0])
							markRegionWrite(n.Args[0])
						}
					}
					return true
				}
			}
			// A writing atomic op on a region word attributes to the inputs
			// its index mentions: w.words[idx].Store(v) writes the area at
			// idx. The stored constant classifies the op as a publication or
			// a retraction, and a region-targeted write is the release-fence
			// signal regionAtomicWrite records.
			if addr, values, isAtomic := atomicOperands(info.Pkg, n); isAtomic {
				if atomicOpWrites(n) {
					markRegionWrite(addr)
					if t, isIdx := unparen(addr).(*ast.IndexExpr); isIdx {
						if key, ok := wordID(info.Pkg, t.X); ok && m.regionKeys[key] {
							s.regionAtomicWrite = true
						}
					}
					for _, va := range values {
						if key, ok := constKeyOf(info.Pkg, va); ok {
							if m.publishConsts[key] {
								s.publishes = true
							}
							if m.unpublishConsts[key] {
								s.unpublishes = true
							}
						}
					}
				}
				return true
			}
			for _, a := range n.Args {
				if key, ok := constKeyOf(info.Pkg, a); ok {
					if m.publishConsts[key] {
						s.publishes = true
					}
					if m.unpublishConsts[key] {
						s.unpublishes = true
					}
				}
			}
			if callee, inputs, ok := prog.resolveCallee(info.Pkg, n); ok {
				sub := prog.mutateSummaryFor(callee.Obj.FullName())
				if sub.publishes {
					s.publishes = true
				}
				if sub.unpublishes {
					s.unpublishes = true
				}
				if sub.regionAtomicWrite {
					s.regionAtomicWrite = true
				}
				for calleeIdx := range sub.writesInputs {
					if e := inputs.inputExpr(calleeIdx); e != nil {
						markWrite(e)
					}
				}
				for calleeIdx := range sub.writesAtInputs {
					if e := inputs.inputExpr(calleeIdx); e != nil {
						for idx := range inputsOf(e) {
							s.writesAtInputs[idx] = true
						}
					}
				}
			}
		}
		return true
	})
	prog.mutateSums[name] = s
	return s
}

// atomicOpWrites reports whether a direct sync/atomic call mutates its word
// (everything but the Load family).
func atomicOpWrites(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return !strings.HasPrefix(sel.Sel.Name, "Load")
}

// isAtomicPkgCall reports whether call invokes a sync/atomic package-level
// function (the address-first-argument family: Load*, Store*, Add*, Swap*,
// CompareAndSwap*, And*, Or*).
func isAtomicPkgCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// addrOperand strips one level of & from an atomic call's address argument;
// anything else (an already-pointer value) is returned as-is and will fail
// word resolution.
func addrOperand(e ast.Expr) ast.Expr {
	e = unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
		return unparen(un.X)
	}
	return e
}

// wordID renders an lvalue as a program-wide nominal word identity:
// "pkgpath.Type.field" for struct fields, "pkgpath.var" for package-level
// variables, "[]" appended per indexing level. Locals, derefs of computed
// pointers, and anything else un-nameable return ok=false.
func wordID(p *Package, e ast.Expr) (string, bool) {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			tv, ok := p.Info.Types[x.X]
			if !ok {
				return "", false
			}
			t := tv.Type
			if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			named, isNamed := types.Unalias(t).(*types.Named)
			if !isNamed || named.Obj().Pkg() == nil {
				return "", false
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name, true
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name(), true
				}
			}
		}
		return "", false
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "", false
		}
		return v.Pkg().Path() + "." + v.Name(), true
	case *ast.IndexExpr:
		base, ok := wordID(p, x.X)
		if !ok {
			return "", false
		}
		return base + "[]", true
	}
	return "", false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

package main

import (
	"go/ast"
	"go/types"
)

// Program is the whole-run view over every loaded package: the function
// index the interprocedural layer resolves call sites against, and the
// per-function summary caches. Functions are keyed by types.Func.FullName()
// — "pkg.F" or "(*pkg.T).M" — because the same function is a distinct
// go/types object in every package that imports it (each importer reloads
// export data), so object identity cannot cross package boundaries but the
// fully qualified name can.
type Program struct {
	Pkgs  []*Package
	funcs map[string]*FuncInfo

	mutateSums map[string]*mutateSummary

	markers *progMarkers

	// specModel is the parsed protocolspec.Spec view plus its computed
	// findings, built once and shared by the four spec-* checks (each
	// check emits only its own category).
	specModel *specModel
}

// FuncInfo is one source-loaded function or method declaration.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

func newProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:       pkgs,
		funcs:      map[string]*FuncInfo{},
		mutateSums: map[string]*mutateSummary{},
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				// First declaration wins; a test variant re-typechecking the
				// same sources produces an identical body anyway.
				if _, dup := prog.funcs[obj.FullName()]; !dup {
					prog.funcs[obj.FullName()] = &FuncInfo{Pkg: p, Decl: fd, Obj: obj}
				}
			}
		}
	}
	return prog
}

// calleeInputs describes how a call site's expressions map onto the callee's
// inputs: Recv is the receiver expression (nil for plain functions), Args the
// ordinary arguments in declaration order.
type calleeInputs struct {
	Recv ast.Expr
	Args []ast.Expr
}

// inputExpr returns the expression bound to callee input idx, where idx -1 is
// the receiver and 0..n-1 are parameters. Variadic tails and arity mismatches
// return nil.
func (ci calleeInputs) inputExpr(idx int) ast.Expr {
	if idx < 0 {
		return ci.Recv
	}
	if idx < len(ci.Args) {
		return ci.Args[idx]
	}
	return nil
}

// resolveCallee resolves a call expression to a module function the program
// has source for, together with the input mapping. Calls through function
// values, interfaces, builtins, conversions, and functions outside the loaded
// set all fail resolution.
func (prog *Program) resolveCallee(p *Package, call *ast.CallExpr) (*FuncInfo, calleeInputs, bool) {
	var fn *types.Func
	inputs := calleeInputs{Args: call.Args}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, calleeInputs{}, false
			}
			fn, _ = sel.Obj().(*types.Func)
			inputs.Recv = fun.X
		} else {
			// Package-qualified call: pkg.F(...).
			fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil, calleeInputs{}, false
	}
	info, ok := prog.funcs[fn.FullName()]
	if !ok {
		return nil, calleeInputs{}, false
	}
	// Interface methods resolve to the interface's method object, whose
	// FullName never matches a concrete declaration; reaching here means a
	// concrete, source-loaded callee.
	return info, inputs, true
}

// inputIndexOf maps an identifier inside fn's body to a callee input index:
// -1 for the receiver, 0..n-1 for parameters, or ok=false for anything else.
func inputIndexOf(info *FuncInfo, id *ast.Ident) (int, bool) {
	obj := info.Pkg.Info.Uses[id]
	if obj == nil {
		obj = info.Pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return 0, false
	}
	sig := info.Obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && info.Decl.Recv != nil {
		for _, f := range info.Decl.Recv.List {
			for _, n := range f.Names {
				if info.Pkg.Info.Defs[n] == v {
					return -1, true
				}
			}
		}
	}
	idx := 0
	for _, f := range info.Decl.Type.Params.List {
		for _, n := range f.Names {
			if info.Pkg.Info.Defs[n] == v {
				return idx, true
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return 0, false
}

// inputVars returns the receiver (index -1) and parameter variables of fn in
// input-index order.
func inputVars(info *FuncInfo) map[int]*types.Var {
	out := map[int]*types.Var{}
	if info.Decl.Recv != nil {
		for _, f := range info.Decl.Recv.List {
			for _, n := range f.Names {
				if v, ok := info.Pkg.Info.Defs[n].(*types.Var); ok {
					out[-1] = v
				}
			}
		}
	}
	idx := 0
	for _, f := range info.Decl.Type.Params.List {
		for _, n := range f.Names {
			if v, ok := info.Pkg.Info.Defs[n].(*types.Var); ok {
				out[idx] = v
			}
			idx++
		}
		if len(f.Names) == 0 {
			idx++
		}
	}
	return out
}

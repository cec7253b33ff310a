package main

// Machinery of the goroutine-lifecycle pass: nominal keys for channels and
// stop flags, the reverse call graph that decides whether a trigger is
// reachable from a Stop/Close surface, and the line-directive lookup behind
// the `//hydralint:daemon` opt-out marker. A channel observed by a spawned
// goroutine and closed by a Stop method is one key, whichever function
// touches it.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// livenessKey renders a channel, flag, mutex or wait-group operand as a
// program-wide identity. Struct fields and package vars key nominally
// ("pkgpath.Type.field", "pkgpath.var" — wordID's scheme, so the
// same field is one node no matter which function touches it); locals and
// captured variables key by declaration position, which joins uses across
// the closures of one function but never across functions.
func livenessKey(p *Package, e ast.Expr) (string, bool) {
	e = unparen(e)
	if key, ok := wordID(p, e); ok {
		return key, true
	}
	if id, ok := e.(*ast.Ident); ok {
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			return "local:" + p.Fset.Position(v.Pos()).String() + ":" + v.Name(), true
		}
	}
	return "", false
}

// markedLines collects the lines covered by a `//hydralint:<marker>`
// directive in f: the directive's own line (trailing comment) and the line
// below it (comment above the statement), mirroring ignore-directive
// placement.
func markedLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := directiveRest(commentText(c), marker); !ok {
				continue
			}
			if lines == nil {
				lines = map[int]bool{}
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// atomicMethodOn classifies a method call on one of the sync/atomic value
// types (atomic.Bool, atomic.Int64, atomic.Pointer[T], ...). It returns the
// receiver expression and method name.
func atomicMethodOn(p *Package, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	s, isMeth := p.Info.Selections[sel]
	if !isMeth || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	fn, isFn := s.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// atomicStoreMethods are the sync/atomic methods that publish a new value —
// the trigger side of an atomic stop flag.
func atomicStoreMethod(name string) bool {
	switch name {
	case "Store", "Swap", "CompareAndSwap", "Add", "Or", "And":
		return true
	}
	return false
}

// stopNamed reports whether a function name reads as part of a shutdown
// surface: the lifecycle pass accepts a cancellation trigger as provable
// when its enclosing function (or a caller of it) matches.
func stopNamed(name string) bool {
	// Method names come through as "(*pkg.T).M"; take the last component.
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	for _, prefix := range []string{
		"Stop", "Close", "Shutdown", "Kill", "Quiesce", "Halt", "Drain",
		"Teardown", "Cancel", "Wait", "Resign",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// callerIndex builds the reverse call graph over resolvable call sites:
// callee FullName -> the FullNames of functions with a call site into it.
// Calls through function values and interfaces are invisible, which is the
// usual conservative gap — a trigger only reachable through an interface
// needs a daemon marker or a stop-named wrapper.
func callerIndex(prog *Program) map[string]map[string]bool {
	callers := map[string]map[string]bool{}
	for name, info := range prog.funcs {
		fnName := name
		fnInfo := info
		ast.Inspect(fnInfo.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, _, resolved := prog.resolveCallee(fnInfo.Pkg, call)
			if !resolved {
				return true
			}
			key := callee.Obj.FullName()
			set := callers[key]
			if set == nil {
				set = map[string]bool{}
				callers[key] = set
			}
			set[fnName] = true
			return true
		})
	}
	return callers
}

// reachesStopSurface walks the reverse call graph from fn, accepting when it
// reaches a stop-named function or the spawner itself (a trigger fired by
// the function that spawned the goroutine — the join-in-spawner pattern).
func reachesStopSurface(callers map[string]map[string]bool, fn, spawner string) bool {
	seen := map[string]bool{}
	work := []string{fn}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if cur == spawner || stopNamed(cur) {
			return true
		}
		for caller := range callers[cur] {
			if !seen[caller] {
				work = append(work, caller)
			}
		}
	}
	return false
}

// localAliases maps a function's channel-typed locals to the nominal key of
// their initializer, one level deep: `stop, done := r.stopCh, r.doneCh`
// makes close(stop) count against "client.Renewer.stopCh". Shadowing and
// reassignment are not tracked; an alias that is later rebound simply keeps
// its first key (over-approximating triggers, never findings).
func localAliases(p *Package, body *ast.BlockStmt) map[types.Object]string {
	var aliases map[types.Object]string
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil && as.Tok == token.ASSIGN {
				obj = p.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
				continue
			}
			key, renders := wordID(p, unparen(as.Rhs[i]))
			if !renders {
				continue
			}
			if aliases == nil {
				aliases = map[types.Object]string{}
			}
			if _, dup := aliases[obj]; !dup {
				aliases[obj] = key
			}
		}
		return true
	})
	return aliases
}

// keyWithAliases renders e like livenessKey but first consults the enclosing
// function's channel-alias map.
func keyWithAliases(p *Package, aliases map[types.Object]string, e ast.Expr) (string, bool) {
	e = unparen(e)
	if id, ok := e.(*ast.Ident); ok && aliases != nil {
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if key, ok := aliases[obj]; ok {
			return key, true
		}
	}
	return livenessKey(p, e)
}

// boundedLoop reports whether a for statement is structurally bounded: a
// classic counted loop (post statement advances an induction variable), or a
// condition over a local that the body itself advances (`for handled < depth`
// with handled++ inside). Everything else — `for {}`, `for cond {}` over
// state only other goroutines change — is treated as unbounded.
func boundedLoop(p *Package, fs *ast.ForStmt) bool {
	if fs.Cond == nil {
		return false
	}
	if fs.Post != nil {
		switch fs.Post.(type) {
		case *ast.IncDecStmt, *ast.AssignStmt:
			return true
		}
	}
	// Collect local variables the condition reads.
	condVars := map[types.Object]bool{}
	ast.Inspect(fs.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, isVar := p.Info.Uses[id].(*types.Var); isVar && !v.IsField() {
				condVars[v] = true
			}
		}
		return true
	})
	if len(condVars) == 0 {
		return false
	}
	advanced := false
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IncDecStmt:
			if id, ok := unparen(n.X).(*ast.Ident); ok && condVars[p.Info.Uses[id]] {
				advanced = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					obj := p.Info.Uses[id]
					if obj == nil {
						obj = p.Info.Defs[id]
					}
					if condVars[obj] {
						advanced = true
					}
				}
			}
		}
		return true
	})
	return advanced
}

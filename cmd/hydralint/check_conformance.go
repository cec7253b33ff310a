package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// model-conformance: keep the hydramc models in lockstep with the lock-free
// code they check. A model's coverage is read from the protocolspec.Spec
// literals whose Model names it: the union of their Packages, their
// Footprint-marked words and their SchedTags. The spec engine's sweep records
// every atomic word and constant invariant.SchedPoint tag of each spec'd
// package (production files only); this pass reports the code -> spec
// direction:
//
//	undeclared  an atomic word or tag in a covered package that some
//	            covering model's specs do not mark: that model no longer
//	            exercises the full interleaving surface (silent rot)
//
// The spec -> code direction (a declared word or tag nothing touches) is
// spec-drift's, so a stale declaration is reported once. Refactors that add
// an atomic word or a scheduling point therefore fail lint until the owning
// spec (and its model) is updated.

// modelCov is one hydramc model's coverage, accumulated over its specs.
type modelCov struct {
	name  string
	pkgs  map[string]bool
	words map[string]bool
	tags  map[string]bool
}

// specSite is the first production site of a word or tag in a package.
type specSite struct {
	p   *Package
	pos token.Pos
}

// checkConformance reports every recorded word and tag of a covered package
// that a covering model leaves undeclared.
func (sm *specModel) checkConformance(sw *specSweep) {
	for path, models := range sm.coveredBy {
		for w, s := range sw.words[path] {
			sm.undeclared(s, path, "atomic word "+w, models, func(mc *modelCov) bool { return mc.words[w] })
		}
		for tag, s := range sw.tags[path] {
			sm.undeclared(s, path, fmt.Sprintf("SchedPoint tag %q", tag), models, func(mc *modelCov) bool { return mc.tags[tag] })
		}
	}
}

// undeclared reports one word or tag at its first site, naming the covering
// models whose specs do not declare it.
func (sm *specModel) undeclared(s specSite, path, what string, models []*modelCov, declares func(*modelCov) bool) {
	var missing []string
	for _, mc := range models {
		if !declares(mc) {
			missing = append(missing, mc.name)
		}
	}
	if len(missing) > 0 {
		sm.add(s.p, s.pos, "model-conformance", "",
			"%s is not declared by the specs of model %s, which cover %s; mark it in the owning protocolspec.Spec and update the model",
			what, strings.Join(missing, ", "), path)
	}
}

func constString(p *Package, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// atomicAccessWord resolves one call to a nominal atomic-word access: either
// a sync/atomic package call (atomic.StoreUint64(&x.f, v)) or a method on a
// sync/atomic type (x.f.Store(v)). Locals and unnameable words resolve false
// — they are not cross-thread state a model could cover.
func atomicAccessWord(p *Package, call *ast.CallExpr) (string, token.Pos, bool) {
	if isAtomicPkgCall(p, call) && len(call.Args) > 0 {
		if id, ok := wordID(p, addrOperand(call.Args[0])); ok {
			return id, call.Pos(), true
		}
		return "", token.NoPos, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", token.NoPos, false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", token.NoPos, false
	}
	recv := s.Recv()
	if ptr, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return "", token.NoPos, false
	}
	if id, ok := wordID(p, sel.X); ok {
		return id, call.Pos(), true
	}
	return "", token.NoPos, false
}

// schedPointTag recognizes invariant.SchedPoint calls; bad is set when the
// tag argument is not a constant string.
func schedPointTag(prog *Program, p *Package, call *ast.CallExpr) (tag string, pos token.Pos, ok, bad bool) {
	callee, _, resolved := prog.resolveCallee(p, call)
	if !resolved || callee.Obj.FullName() != "hydradb/internal/invariant.SchedPoint" {
		return "", token.NoPos, false, false
	}
	if len(call.Args) != 1 {
		return "", call.Pos(), true, true
	}
	s, isConst := constString(p, call.Args[0])
	if !isConst {
		return "", call.Args[0].Pos(), true, true
	}
	return s, call.Pos(), true, false
}

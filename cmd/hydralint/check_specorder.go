package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The payload-before-release leg of spec-order: enforce the out-of-place
// PUT idiom — every store into memory reachable from a to-be-published
// pointer must be sequenced before the guardian release store that makes
// the item remotely visible.
//
// The pass tracks *allocation groups*: the locals bound by one multi-value
// definition (dataOff, metaIdx, ref, err := s.allocItem(...)) name one item's
// remote-visible memory, and values derived from them inherit the group. A
// store of a //hydralint:publish constant (GuardianLive) through a grouped
// offset — or a call into a //hydralint:publishes function — publishes the
// group. From that point until a //hydralint:unpublish constant
// (GuardianDead) retracts it, any write into region-backed memory named by
// the group is a finding:
//
//	direct      region[groupedOffset] = v, *regionView = v, copy(view, ...)
//	via calls   a callee whose mutate summary writes through a region-derived
//	            argument, or writes the region at an argument-derived offset
//
// Host-side bookkeeping (item records, counters) is deliberately out of
// scope: only writes whose target is region-backed — and therefore remotely
// readable the instant the guardian flips — are ordered. Inside a
// //hydralint:publishes function the roles invert: the first atomic
// indicator store is the publication point, and plain payload writes after
// it are findings.
//
// A package's protocolspec.Spec declares this flow as a
// payload-before-release edge (spec-drift verifies the edge's From still
// carries the publish marker the walker keys on, closing the loop), names
// the spec findings are attributed under, and — via lease-word Writers —
// sanctions the one post-release store the protocol allows: monotonic
// lease renewal. Marker-only packages still get the full flow pass, with
// an empty spec attribution.
func (sm *specModel) flowPass(prog *Program) {
	m := prog.markersFor()
	if len(m.publishConsts) == 0 && len(m.publishesFuncs) == 0 {
		return
	}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := prog.funcs[obj.FullName()]
				if info == nil || info.Decl != fd {
					continue
				}
				w := &pubWalker{
					prog: prog, p: info.Pkg, info: info, sm: sm, m: m,
					spec:        sm.pkgSpec[info.Pkg.ImportPath],
					groups:      map[*types.Var]map[int]bool{},
					regionLocal: map[*types.Var]bool{},
					inPublishes: m.publishesFuncs[obj.FullName()],
				}
				env := &pubEnv{published: map[int]token.Pos{}}
				w.walkStmts(fd.Body.List, env)
			}
		}
	}
}

// pubEnv is the path state: which groups have been published (and where),
// and — inside hydralint:publishes functions — whether the indicator has
// been released yet.
type pubEnv struct {
	published map[int]token.Pos
	pubAll    bool
}

func (e *pubEnv) clone() *pubEnv {
	c := &pubEnv{published: map[int]token.Pos{}, pubAll: e.pubAll}
	for g, pos := range e.published {
		c.published[g] = pos
	}
	return c
}

// union folds a branch outcome back in: published-anywhere stays published.
func (e *pubEnv) union(o *pubEnv) {
	for g, pos := range o.published {
		if _, ok := e.published[g]; !ok {
			e.published[g] = pos
		}
	}
	e.pubAll = e.pubAll || o.pubAll
}

type pubWalker struct {
	prog *Program
	p    *Package
	info *FuncInfo
	sm   *specModel
	m    *progMarkers
	spec string // covering spec name for finding attribution ("" if none)

	groups      map[*types.Var]map[int]bool // var -> allocation groups
	regionLocal map[*types.Var]bool         // var aliases region-backed memory
	nextGroup   int
	inPublishes bool
}

// emit records a spec-order finding attributed to the covering spec.
func (w *pubWalker) emit(pos token.Pos, format string, args ...any) {
	w.sm.add(w.p, pos, "spec-order", w.spec, format, args...)
}

func (w *pubWalker) lookupVar(id *ast.Ident) (*types.Var, bool) {
	obj := w.p.Info.Uses[id]
	if obj == nil {
		obj = w.p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// groupsOf unions the allocation groups of every identifier under e.
func (w *pubWalker) groupsOf(exprs ...ast.Expr) map[int]bool {
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
				if v, found := w.lookupVar(id); found {
					for g := range w.groups[v] {
						out[g] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// regionDerived reports whether e names region-backed memory: a region-marked
// field/var, a region-view call result, or a local that aliases one.
func (w *pubWalker) regionDerived(e ast.Expr) bool {
	if e == nil {
		return false
	}
	derived := false
	ast.Inspect(e, func(n ast.Node) bool {
		if derived {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := w.lookupVar(n); ok && w.regionLocal[v] {
				derived = true
			}
		case *ast.SelectorExpr:
			if key, ok := wordID(w.p, n); ok && w.m.regionKeys[key] {
				derived = true
			}
		case *ast.CallExpr:
			if callee, _, ok := w.prog.resolveCallee(w.p, n); ok && w.m.regionViewFuncs[callee.Obj.FullName()] {
				derived = true
			}
		}
		return true
	})
	return derived
}

// mentionsInput reports whether e mentions any parameter or receiver of the
// function being walked (the implicit group of a publishes function).
func (w *pubWalker) mentionsInput(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if _, isInput := inputIndexOf(w.info, id); isInput {
				found = true
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Events

func (w *pubWalker) publish(env *pubEnv, groups map[int]bool, pos token.Pos) {
	for g := range groups {
		if _, ok := env.published[g]; !ok {
			env.published[g] = pos
		}
	}
}

func (w *pubWalker) unpublish(env *pubEnv, groups map[int]bool) {
	for g := range groups {
		delete(env.published, g)
	}
}

// writeCheck flags a region write into a published group.
func (w *pubWalker) writeCheck(env *pubEnv, groups map[int]bool, pos token.Pos, what string) {
	for g := range groups {
		if pubPos, ok := env.published[g]; ok {
			p := w.p.Fset.Position(pubPos)
			w.emit(pos,
				"%s after the item was published at line %d; sequence all payload writes before the release store, or store the hydralint:unpublish constant first",
				what, p.Line)
			return
		}
	}
}

// pubAllCheck flags a plain payload write after the indicator release inside
// a hydralint:publishes function.
func (w *pubWalker) pubAllCheck(env *pubEnv, e ast.Expr, pos token.Pos, what string) {
	if !w.inPublishes || !env.pubAll || e == nil {
		return
	}
	if w.mentionsInput(e) || w.regionDerived(e) {
		w.emit(pos,
			"%s after the indicator store in a hydralint:publishes function; the payload must be complete before the indicator is released", what)
	}
}

// ---------------------------------------------------------------------------
// Calls

// handleCallsIn processes every call under n in source order.
func (w *pubWalker) handleCallsIn(env *pubEnv, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			w.handleCall(env, call)
		}
		return true
	})
}

func (w *pubWalker) handleCall(env *pubEnv, call *ast.CallExpr) {
	// Builtin copy writes its first argument.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := w.p.Info.Uses[id].(*types.Builtin); builtin {
			if (id.Name == "copy" || id.Name == "clear") && len(call.Args) > 0 && w.regionDerived(call.Args[0]) {
				w.writeCheck(env, w.groupsOf(call.Args[0]), call.Pos(), "copy into region memory")
				w.pubAllCheck(env, call.Args[0], call.Pos(), "copy into the payload")
			}
			return
		}
	}

	// Direct sync/atomic operation: classify by the stored constant.
	if addr, valueArgs, ok := atomicOperands(w.p, call); ok {
		groups := w.groupsOf(addr)
		for _, va := range valueArgs {
			if key, isConst := constKeyOf(w.p, va); isConst {
				if w.m.publishConsts[key] {
					w.publish(env, groups, call.Pos())
					return
				}
				if w.m.unpublishConsts[key] {
					w.unpublish(env, groups)
					return
				}
			}
		}
		// Only a *writing* atomic on *region* memory matters here: a Load is
		// no fence, and a CAS on host-side bookkeeping (the NIC's inflight
		// counter) is not the indicator release.
		if atomicOpWrites(call) && w.regionDerived(addr) {
			if w.inPublishes {
				env.pubAll = true // indicator release: publication point
			} else {
				w.writeCheck(env, groups, call.Pos(), "atomic store into region memory")
			}
		}
		return
	}

	callee, inputs, ok := w.prog.resolveCallee(w.p, call)
	if !ok {
		return
	}
	name := callee.Obj.FullName()

	// A Writers entry on a lease-word role is the protocol's one
	// sanctioned post-release store (monotonic renewal under a guardian
	// readers re-validate); its writes are exempt from the order check.
	if w.sm.leaseWriters[name] {
		return
	}

	// A publish/unpublish constant handed to any callee classifies the call.
	for _, a := range call.Args {
		if key, isConst := constKeyOf(w.p, a); isConst {
			if w.m.publishConsts[key] {
				groups := w.groupsOf(append(otherArgs(call, a), inputs.Recv)...)
				w.publish(env, groups, call.Pos())
				return
			}
			if w.m.unpublishConsts[key] {
				w.unpublish(env, w.groupsOf(append(otherArgs(call, a), inputs.Recv)...))
				return
			}
		}
	}

	sum := w.prog.mutateSummaryFor(name)
	if sum.publishes {
		all := append(append([]ast.Expr{}, call.Args...), inputs.Recv)
		w.publish(env, w.groupsOf(all...), call.Pos())
		if w.inPublishes {
			env.pubAll = true
		}
		return
	}
	// A retracting callee (Mailbox.Consume stores the unpublish constant, or
	// is hydralint:unpublishes-marked) withdraws every group its operands
	// name; writes it performs on the way are the sanctioned teardown.
	if sum.unpublishes {
		all := append(append([]ast.Expr{}, call.Args...), inputs.Recv)
		w.unpublish(env, w.groupsOf(all...))
		return
	}
	for idx := range sum.writesInputs {
		e := inputs.inputExpr(idx)
		if e == nil {
			continue
		}
		if w.regionDerived(e) {
			w.writeCheck(env, w.groupsOf(e), call.Pos(), "write through a region buffer ("+callee.Obj.Name()+")")
		}
		w.pubAllCheck(env, e, call.Pos(), "write through the payload buffer ("+callee.Obj.Name()+")")
	}
	for idx := range sum.writesAtInputs {
		e := inputs.inputExpr(idx)
		if e == nil {
			continue
		}
		w.writeCheck(env, w.groupsOf(e), call.Pos(), "region write at a group offset ("+callee.Obj.Name()+")")
	}
	if w.inPublishes && sum.regionAtomicWrite {
		env.pubAll = true
	}
}

func otherArgs(call *ast.CallExpr, not ast.Expr) []ast.Expr {
	var out []ast.Expr
	for _, a := range call.Args {
		if a != not {
			out = append(out, a)
		}
	}
	return out
}

// atomicOperands splits a direct sync/atomic call into the address expression
// and the value operands: atomic.StoreUint64(&x, v) and x.Store(v) forms.
func atomicOperands(p *Package, call *ast.CallExpr) (addr ast.Expr, values []ast.Expr, ok bool) {
	if isAtomicPkgCall(p, call) && len(call.Args) > 0 {
		return addrOperand(call.Args[0]), call.Args[1:], true
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	s, found := p.Info.Selections[sel]
	if !found || s.Kind() != types.MethodVal {
		return nil, nil, false
	}
	recv := s.Recv()
	if ptr, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := types.Unalias(recv).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return nil, nil, false
	}
	return sel.X, call.Args, true
}

// ---------------------------------------------------------------------------
// Statements

func (w *pubWalker) walkStmts(list []ast.Stmt, env *pubEnv) {
	for _, s := range list {
		w.walkStmt(s, env)
	}
}

func (w *pubWalker) walkStmt(s ast.Stmt, env *pubEnv) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.handleCallsIn(env, rhs)
		}
		for _, lhs := range s.Lhs {
			w.checkDirectWrite(env, lhs, s.Tok)
		}
		w.propagate(s)
	case *ast.ExprStmt:
		w.handleCallsIn(env, s.X)
	case *ast.DeclStmt:
		w.handleCallsIn(env, s)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					w.propagateSpec(vs)
				}
			}
		}
	case *ast.IncDecStmt:
		w.checkDirectWrite(env, s.X, token.ASSIGN)
	case *ast.DeferStmt:
		w.handleCallsIn(env, s.Call)
	case *ast.GoStmt:
		w.handleCallsIn(env, s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.handleCallsIn(env, r)
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, env)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, env)
		}
		w.handleCallsIn(env, s.Cond)
		thenEnv := env.clone()
		w.walkStmts(s.Body.List, thenEnv)
		elseEnv := env.clone()
		if s.Else != nil {
			w.walkStmt(s.Else, elseEnv)
		}
		env.published = map[int]token.Pos{}
		env.pubAll = false
		env.union(thenEnv)
		env.union(elseEnv)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, env)
		}
		w.handleCallsIn(env, s.Cond)
		// Two passes: the second sees state published by the first, catching
		// cross-iteration publish-then-write orders.
		for i := 0; i < 2; i++ {
			body := env.clone()
			w.walkStmts(s.Body.List, body)
			if s.Post != nil {
				w.walkStmt(s.Post, body)
			}
			env.union(body)
		}
	case *ast.RangeStmt:
		w.handleCallsIn(env, s.X)
		for i := 0; i < 2; i++ {
			body := env.clone()
			w.walkStmts(s.Body.List, body)
			env.union(body)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkCompound(s, env)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, env)
	}
}

// walkCompound handles switch/select: each clause runs from the entry state;
// the exit state is the union of clause outcomes.
func (w *pubWalker) walkCompound(s ast.Stmt, env *pubEnv) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, env)
		}
		w.handleCallsIn(env, s.Tag)
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := env.clone()
	for _, clause := range body.List {
		ce := env.clone()
		switch c := clause.(type) {
		case *ast.CaseClause:
			w.walkStmts(c.Body, ce)
		case *ast.CommClause:
			w.walkStmts(c.Body, ce)
		}
		out.union(ce)
	}
	*env = *out
}

// checkDirectWrite flags a plain store whose target is region-backed memory
// named by a published group.
func (w *pubWalker) checkDirectWrite(env *pubEnv, lhs ast.Expr, tok token.Token) {
	if tok == token.DEFINE {
		return
	}
	lhs = unparen(lhs)
	switch x := lhs.(type) {
	case *ast.IndexExpr:
		if !w.regionDerived(x.X) {
			return
		}
		groups := w.groupsOf(x.Index, x.X)
		w.writeCheck(env, groups, x.Pos(), "store into region memory")
		w.pubAllCheck(env, x, x.Pos(), "store into the payload")
	case *ast.StarExpr, *ast.SelectorExpr:
		if root, ok := exprRoot(lhs); ok {
			if v, found := w.lookupVar(root); found && w.regionLocal[v] {
				w.writeCheck(env, w.groupsOf(lhs), lhs.Pos(), "store through a region buffer")
				w.pubAllCheck(env, lhs, lhs.Pos(), "store through the payload buffer")
			}
		}
	}
}

// propagate updates group and region taint for an assignment: a multi-value
// definition mints a fresh allocation group shared by all targets; pairwise
// assignments inherit the groups and region-ness of their right-hand sides.
func (w *pubWalker) propagate(s *ast.AssignStmt) {
	fresh := -1
	if s.Tok == token.DEFINE && len(s.Lhs) > 1 && len(s.Lhs) != len(s.Rhs) {
		fresh = w.nextGroup
		w.nextGroup++
	}
	for i, lhs := range s.Lhs {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v, found := w.lookupVar(id)
		if !found {
			continue
		}
		groups := map[int]bool{}
		region := false
		if len(s.Lhs) == len(s.Rhs) {
			rhs := s.Rhs[i]
			for g := range w.groupsOf(rhs) {
				groups[g] = true
			}
			region = w.regionDerived(rhs)
			// A single definition from an offset-source producer mints a
			// group of its own: the returned offset names fresh item memory.
			if s.Tok == token.DEFINE {
				if call, isCall := unparen(rhs).(*ast.CallExpr); isCall {
					if callee, _, ok := w.prog.resolveCallee(w.p, call); ok && w.m.offsetSourceFuncs[callee.Obj.FullName()] {
						groups[w.nextGroup] = true
						w.nextGroup++
					}
				}
			}
		} else {
			for g := range w.groupsOf(s.Rhs...) {
				groups[g] = true
			}
			if fresh >= 0 {
				groups[fresh] = true
			}
		}
		if s.Tok == token.DEFINE {
			w.groups[v] = groups
			w.regionLocal[v] = region
		} else {
			// Plain assignment: accumulate (conservative over paths).
			if w.groups[v] == nil {
				w.groups[v] = map[int]bool{}
			}
			for g := range groups {
				w.groups[v][g] = true
			}
			w.regionLocal[v] = w.regionLocal[v] || region
		}
	}
}

func (w *pubWalker) propagateSpec(vs *ast.ValueSpec) {
	if len(vs.Values) != len(vs.Names) {
		return
	}
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		v, ok := w.p.Info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		w.groups[v] = w.groupsOf(vs.Values[i])
		w.regionLocal[v] = w.regionDerived(vs.Values[i])
	}
}

package main

// bounded-spin: no backedge may be taken forever without descheduling.
//
// A loop is a *spin* when an iteration can complete without blocking
// (channel op, no-default select, mutex lock, WaitGroup wait) and without
// doing observable work (an impure call, an atomic store/RMW, a variable
// update). The classic instance is `for !done.Load() {}` — on a GOMAXPROCS=1
// box or a pinned core that loop can starve the very goroutine that would
// flip the flag. Every spin loop must therefore carry BOTH:
//
//   - a yield/backoff point — runtime.Gosched, time.Sleep, timing.Sleep,
//     invariant.SchedPoint, or a module call that transitively yields or
//     blocks — so the scheduler can run the goroutine that makes progress;
//   - an exit — a loop condition, or a break/return/panic that leaves the
//     loop — so cancellation can actually terminate it.
//
// Calls the analyzer cannot resolve (stdlib, interface methods) count as
// work: the pass under-reports rather than flagging loops like
// `for sc.Scan() {}` whose progress lives behind an opaque call. The
// `//hydralint:spins <why>` marker exempts a loop that is deliberately
// unbounded (and is counted by the suppression budget).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// spinYields answers "does calling fn deschedule?" — fn directly yields,
// blocks, or calls a module function that does. Memoized across the run;
// recursion cycles resolve to "no" (a cycle of non-yielding calls cannot
// manufacture a yield).
type spinYields struct {
	prog *Program
	memo map[string]int // 0 in-progress, 1 yields, 2 does not
}

func (sy *spinYields) yields(name string) bool {
	if v, ok := sy.memo[name]; ok {
		return v == 1
	}
	info, ok := sy.prog.funcs[name]
	if !ok {
		return false
	}
	sy.memo[name] = 0
	result := false
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if result {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			result = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				result = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				result = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Pkg.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					result = true
				}
			}
		case *ast.CallExpr:
			if isYieldCall(info.Pkg, n) {
				result = true
				return false
			}
			if _, ok := isWaitGroupMethod(info.Pkg, n, "Wait"); ok {
				result = true
				return false
			}
			if _, mode, dir, ok := lockOpPkg(info.Pkg, n); ok && dir > 0 && mode != "" {
				// A sync mutex Lock/RLock blocks; Owner.Acquire (mode "")
				// is an assertion, not a wait.
				result = true
				return false
			}
			if callee, _, ok := sy.prog.resolveCallee(info.Pkg, n); ok {
				if st, seen := sy.memo[callee.Obj.FullName()]; !seen || st == 1 {
					if sy.yields(callee.Obj.FullName()) {
						result = true
					}
				}
			}
		}
		return !result
	})
	if result {
		sy.memo[name] = 1
	} else {
		sy.memo[name] = 2
	}
	return result
}

// loopTraits is what one walk of a loop body (funclits excluded — their
// bodies run on other goroutines' schedules) establishes about an iteration.
type loopTraits struct {
	blocking bool // an iteration can block: chan op, no-default select, Lock, Wait
	yield    bool // an iteration passes a yield point
	progress bool // an iteration does observable work
	exits    bool // control can leave the loop: break/return/goto/panic
}

func runBoundedSpin(prog *Program, rep func(*Package) *Reporter) {
	sy := &spinYields{prog: prog, memo: map[string]int{}}
	for _, p := range prog.Pkgs {
		r := rep(p)
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			spins := markedLines(p.Fset, f, "hydralint:spins")
			var enclosing *ast.FuncDecl
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				enclosing = fd
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					fs, ok := n.(*ast.ForStmt)
					if !ok {
						return true
					}
					checkSpinLoop(p, r, sy, fs, spins, enclosing)
					return true
				})
			}
		}
	}
}

func checkSpinLoop(p *Package, r *Reporter, sy *spinYields, fs *ast.ForStmt, spins map[int]bool, enclosing *ast.FuncDecl) {
	if spins[p.Fset.Position(fs.Pos()).Line] {
		return
	}
	if enclosing != nil && docHasMarker(enclosing.Doc, "hydralint:spins") {
		return
	}
	var t loopTraits
	if fs.Cond != nil {
		t.exits = true
		spinScanExpr(p, sy, fs.Cond, &t)
	}
	if fs.Post != nil {
		spinScanStmt(p, sy, fs.Post, &t, true)
	}
	spinScanStmt(p, sy, fs.Body, &t, true)
	if t.blocking || t.progress {
		return
	}
	switch {
	case !t.yield:
		r.report("bounded-spin", fs.Pos(),
			"busy-wait loop has no yield or backoff (runtime.Gosched, timing.Sleep, invariant.SchedPoint); it can pin a core and starve the goroutine it waits on — add one or mark //hydralint:spins <why>")
	case !t.exits:
		r.report("bounded-spin", fs.Pos(),
			"busy-wait loop has no cancellation or termination path (no condition, break, or return); it spins forever once entered — add an exit or mark //hydralint:spins <why>")
	}
}

// spinScanStmt folds a statement's liveness traits into t. atLoopLevel
// tracks whether an unlabeled break here would leave the loop under
// analysis (false once inside a nested for/range/switch/select).
func spinScanStmt(p *Package, sy *spinYields, s ast.Stmt, t *loopTraits, atLoopLevel bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			spinScanStmt(p, sy, sub, t, atLoopLevel)
		}
	case *ast.IfStmt:
		spinScanStmt(p, sy, s.Init, t, atLoopLevel)
		spinScanExpr(p, sy, s.Cond, t)
		spinScanStmt(p, sy, s.Body, t, atLoopLevel)
		spinScanStmt(p, sy, s.Else, t, atLoopLevel)
	case *ast.LabeledStmt:
		spinScanStmt(p, sy, s.Stmt, t, atLoopLevel)
	case *ast.ForStmt:
		spinScanStmt(p, sy, s.Init, t, false)
		spinScanExpr(p, sy, s.Cond, t)
		spinScanStmt(p, sy, s.Post, t, false)
		spinScanStmt(p, sy, s.Body, t, false)
	case *ast.RangeStmt:
		if tv, ok := p.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				t.blocking = true
			}
		}
		spinScanExpr(p, sy, s.X, t)
		spinScanStmt(p, sy, s.Body, t, false)
	case *ast.SwitchStmt:
		spinScanStmt(p, sy, s.Init, t, atLoopLevel)
		spinScanExpr(p, sy, s.Tag, t)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					spinScanExpr(p, sy, e, t)
				}
				for _, sub := range cc.Body {
					spinScanStmt(p, sy, sub, t, false)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		spinScanStmt(p, sy, s.Init, t, atLoopLevel)
		spinScanStmt(p, sy, s.Assign, t, atLoopLevel)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, sub := range cc.Body {
					spinScanStmt(p, sy, sub, t, false)
				}
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			t.blocking = true
		}
		for _, cl := range s.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok {
				// The comm op itself is non-blocking when a default exists;
				// scan it only for calls (e.g. a recv from a method call).
				if comm.Comm != nil {
					spinScanStmt(p, sy, comm.Comm, t, false)
				}
				for _, sub := range comm.Body {
					spinScanStmt(p, sy, sub, t, false)
				}
			}
		}
	case *ast.SendStmt:
		t.blocking = true
		spinScanExpr(p, sy, s.Chan, t)
		spinScanExpr(p, sy, s.Value, t)
	case *ast.BranchStmt:
		// An unlabeled break at loop level, or any labeled branch, is exit
		// evidence; goto is treated as leaving conservatively.
		switch s.Tok {
		case token.BREAK:
			if atLoopLevel || s.Label != nil {
				t.exits = true
			}
		case token.GOTO:
			t.exits = true
		}
	case *ast.ReturnStmt:
		t.exits = true
		for _, e := range s.Results {
			spinScanExpr(p, sy, e, t)
		}
	case *ast.IncDecStmt:
		t.progress = true
	case *ast.AssignStmt:
		// Compound assigns and plain reassignments advance state; a pure
		// define (`x := y` with no impure RHS) does not.
		if s.Tok != token.DEFINE {
			t.progress = true
		}
		for _, e := range s.Rhs {
			spinScanExpr(p, sy, e, t)
		}
		for _, e := range s.Lhs {
			spinScanExpr(p, sy, e, t)
		}
	case *ast.ExprStmt:
		spinScanExpr(p, sy, s.X, t)
	case *ast.DeferStmt:
		spinScanExpr(p, sy, s.Call, t)
	case *ast.GoStmt:
		// Spawning is work (and the lifecycle pass owns the spawned body).
		t.progress = true
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						spinScanExpr(p, sy, e, t)
					}
				}
			}
		}
	case *ast.EmptyStmt:
	default:
		// Unknown statement forms count as work, never as a finding.
		t.progress = true
	}
}

// spinScanExpr folds an expression's traits into t: channel receives block,
// calls are classified pure / yield / work.
func spinScanExpr(p *Package, sy *spinYields, e ast.Expr, t *loopTraits) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				t.blocking = true
			}
		case *ast.CallExpr:
			spinClassifyCall(p, sy, n, t)
		}
		return true
	})
}

// spinClassifyCall buckets one call: yield, pure (atomic Load, pure
// builtins, conversions), blocking (Lock/Wait/yielding module callee), or
// work. Unresolvable calls are work — the conservative direction for a
// liveness pass is "assume the callee makes progress".
func spinClassifyCall(p *Package, sy *spinYields, call *ast.CallExpr, t *loopTraits) {
	if isYieldCall(p, call) {
		t.yield = true
		return
	}
	if recv, method, ok := atomicMethodOn(p, call); ok {
		_ = recv
		if atomicStoreMethod(method) {
			t.progress = true
		}
		// atomic Load and friends are pure observation.
		return
	}
	if _, ok := isWaitGroupMethod(p, call, "Wait"); ok {
		t.blocking = true
		return
	}
	if _, mode, dir, ok := lockOpPkg(p, call); ok {
		if dir > 0 && mode != "" {
			t.blocking = true // sync mutex Lock/RLock can wait
		} else {
			t.progress = true // unlocks and owner asserts are work, not waits
		}
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "min", "max", "real", "imag", "complex":
				return // pure observation
			case "panic":
				t.exits = true
				return
			}
			t.progress = true // append, close, delete, copy, clear, ...
			return
		}
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion: pure
	}
	if isNoReturnCall(p, call) {
		t.exits = true
		return
	}
	if callee, _, ok := p.Prog.resolveCallee(p, call); ok {
		if sy.yields(callee.Obj.FullName()) {
			t.yield = true
		} else {
			t.progress = true
		}
		return
	}
	t.progress = true
}

package main

// wait-cycle: build a static wait-for graph and report anything that can
// close into a loop, plus inversions of the declared lock-order DAG.
//
// Nodes are the blockable resources of the module, in the nominal key space
// of liveness.go:
//
//	lock:K  — a sync.Mutex/RWMutex (write and read modes merged into one
//	          node: an RLock still waits behind a writer)
//	chan:K  — a channel identity; rendezvous pairs (request/done) appear
//	          here
//	wg:K    — a sync.WaitGroup
//
// Edges mean "making progress on the left may require the right":
//
//	held H, acquire L      →  H → lock:L   (also checked against LockOrder)
//	held H, blocking op K  →  H → chan:K / wg:K
//	blocked send on K      →  chan:K → every lock held at any receive of K
//	blocked recv on K      →  chan:K → every lock held at any send of K
//	wg.Wait on K           →  wg:K → every lock held at any Done/Add of K
//
// A cycle in this graph is a statically possible deadlock; every edge on the
// cycle is reported (each is independently suppressible). The walk tracks
// held locks per function with branch-sensitive merging (a branch that
// returns does not leak its held-set into the fall-through path) and treats
// `defer mu.Unlock()` as holding to function end. It is direct-ops-only:
// a lock acquired inside a callee is attributed to the callee's own context
// — the lease-discipline pass already forces helpers to have clean lock
// summaries, which keeps this approximation honest.
//
// The lock-order DAG lives in internal/invariant/lockorder.go as ordered
// levels of nominal lock keys; acquiring a lock at a level ≤ a held lock's
// level is an inversion even before it closes a cycle.

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"go/types"
)

// wcHeld is one lock in a held-set, by nominal key.
type wcHeld struct {
	key string
}

type wcEdge struct {
	pkg *Package
	pos token.Pos
	why string
}

type wcChanOp struct {
	key      string
	send     bool
	blocking bool
	held     []wcHeld
	pkg      *Package
	pos      token.Pos
}

type wcWgOp struct {
	key  string
	held []wcHeld
	pkg  *Package
	pos  token.Pos
}

type wcGraph struct {
	edges      map[string]map[string]wcEdge
	chanOps    []wcChanOp
	wgDones    []wcWgOp
	wgWaitKeys []string
	levels     map[string]int // lock key → LockOrder level
	rep        func(*Package) *Reporter
}

func (g *wcGraph) addEdge(from, to string, p *Package, pos token.Pos, why string) {
	if from == to && !strings.HasPrefix(from, "lock:") {
		// A goroutine blocking on a channel it also serves elsewhere is not
		// a self-deadlock by itself; only lock re-acquisition self-loops are.
		return
	}
	m := g.edges[from]
	if m == nil {
		m = map[string]wcEdge{}
		g.edges[from] = m
	}
	if _, dup := m[to]; !dup {
		m[to] = wcEdge{pkg: p, pos: pos, why: why}
	}
}

func runWaitCycle(prog *Program, rep func(*Package) *Reporter) {
	g := &wcGraph{
		edges:  map[string]map[string]wcEdge{},
		levels: parseLockOrder(prog),
		rep:    rep,
	}
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			// Every function body — declarations and literals — is its own
			// context with an empty held-set; nested literals are excluded
			// from the enclosing walk and walked separately.
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					g.walkContext(p, fd.Body.List, nil)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
					g.walkContext(p, lit.Body.List, nil)
				}
				return true
			})
		}
	}
	g.peerEdges()
	g.reportCycles()
}

// walkContext processes one function body's statements with branch-aware
// held tracking.
func (g *wcGraph) walkContext(p *Package, stmts []ast.Stmt, held []wcHeld) {
	g.walkStmts(p, stmts, held)
}

func heldCopy(held []wcHeld) []wcHeld {
	out := make([]wcHeld, len(held))
	copy(out, held)
	return out
}

func heldUnion(a, b []wcHeld) []wcHeld {
	out := heldCopy(a)
	for _, h := range b {
		found := false
		for _, have := range out {
			if have == h {
				found = true
				break
			}
		}
		if !found {
			out = append(out, h)
		}
	}
	return out
}

func heldRemoveLast(held []wcHeld, key string) []wcHeld {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(heldCopy(held[:i]), held[i+1:]...)
		}
	}
	return held
}

// walkStmts walks a statement list, returning the held-set at fall-through
// and whether every path terminated (return / no-return call).
func (g *wcGraph) walkStmts(p *Package, stmts []ast.Stmt, held []wcHeld) ([]wcHeld, bool) {
	for _, s := range stmts {
		var term bool
		held, term = g.walkStmt(p, s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (g *wcGraph) walkStmt(p *Package, s ast.Stmt, held []wcHeld) ([]wcHeld, bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return g.walkStmts(p, s.List, held)
	case *ast.LabeledStmt:
		return g.walkStmt(p, s.Stmt, held)
	case *ast.IfStmt:
		held, _ = g.walkStmt(p, s.Init, held)
		g.scanExprOps(p, s.Cond, held)
		bodyOut, bodyTerm := g.walkStmts(p, s.Body.List, heldCopy(held))
		elseOut, elseTerm := heldCopy(held), false
		if s.Else != nil {
			elseOut, elseTerm = g.walkStmt(p, s.Else, heldCopy(held))
		}
		switch {
		case bodyTerm && elseTerm:
			return held, true
		case bodyTerm:
			return elseOut, false
		case elseTerm:
			return bodyOut, false
		default:
			return heldUnion(bodyOut, elseOut), false
		}
	case *ast.ForStmt:
		held, _ = g.walkStmt(p, s.Init, held)
		g.scanExprOps(p, s.Cond, held)
		bodyOut, _ := g.walkStmts(p, s.Body.List, heldCopy(held))
		if s.Post != nil {
			bodyOut, _ = g.walkStmt(p, s.Post, bodyOut)
		}
		return heldUnion(held, bodyOut), false
	case *ast.RangeStmt:
		if tv, ok := p.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				if key, ok := livenessKey(p, s.X); ok {
					g.chanOp(p, s.X.Pos(), key, false, true, held)
				}
			}
		}
		g.scanExprOps(p, s.X, held)
		bodyOut, _ := g.walkStmts(p, s.Body.List, heldCopy(held))
		return heldUnion(held, bodyOut), false
	case *ast.SwitchStmt:
		held, _ = g.walkStmt(p, s.Init, held)
		g.scanExprOps(p, s.Tag, held)
		out := heldCopy(held)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					g.scanExprOps(p, e, held)
				}
				clOut, clTerm := g.walkStmts(p, cc.Body, heldCopy(held))
				if !clTerm {
					out = heldUnion(out, clOut)
				}
			}
		}
		return out, false
	case *ast.TypeSwitchStmt:
		held, _ = g.walkStmt(p, s.Init, held)
		out := heldCopy(held)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				clOut, clTerm := g.walkStmts(p, cc.Body, heldCopy(held))
				if !clTerm {
					out = heldUnion(out, clOut)
				}
			}
		}
		return out, false
	case *ast.SelectStmt:
		blocking := !selectHasDefault(s)
		out := heldCopy(held)
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			if comm.Comm != nil {
				g.selectCommOp(p, comm.Comm, blocking, held)
			}
			clOut, clTerm := g.walkStmts(p, comm.Body, heldCopy(held))
			if !clTerm {
				out = heldUnion(out, clOut)
			}
		}
		return out, false
	case *ast.SendStmt:
		g.scanExprOps(p, s.Value, held)
		if key, ok := livenessKey(p, s.Chan); ok {
			g.chanOp(p, s.Pos(), key, true, true, held)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			g.scanExprOps(p, e, held)
		}
		for _, e := range s.Lhs {
			g.scanExprOps(p, e, held)
		}
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok {
			var term bool
			held, term = g.callOp(p, call, held)
			g.scanCallArgs(p, call, held)
			return held, term
		}
		g.scanExprOps(p, s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end (no action);
		// defer wg.Done() runs at exit where locks are normally released.
		if recv, ok := isWaitGroupMethod(p, s.Call, "Done"); ok {
			if key, ok := livenessKey(p, recv); ok {
				g.wgDones = append(g.wgDones, wcWgOp{key: key, pkg: p, pos: s.Pos()})
			}
		}
		g.scanCallArgs(p, s.Call, held)
	case *ast.GoStmt:
		// The spawned call runs in another context; its literal body was
		// already collected as a separate context. Arguments evaluate here.
		g.scanCallArgs(p, s.Call, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			g.scanExprOps(p, e, held)
		}
		return held, true
	case *ast.IncDecStmt:
		g.scanExprOps(p, s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						g.scanExprOps(p, e, held)
					}
				}
			}
		}
	default:
		// BranchStmt, EmptyStmt, etc: no wait semantics.
	}
	return held, false
}

// callOp handles a call in statement position: lock ops mutate the held-set,
// WaitGroup ops record waits. Returns the new held-set and
// whether the call never returns.
func (g *wcGraph) callOp(p *Package, call *ast.CallExpr, held []wcHeld) ([]wcHeld, bool) {
	if isNoReturnCall(p, call) {
		return held, true
	}
	if recv, mode, dir, ok := lockOpPkg(p, call); ok && mode != "" {
		key, renders := livenessKey(p, recv)
		if !renders {
			return held, false
		}
		if dir > 0 {
			g.acquireLock(p, call.Pos(), key, held)
			return append(heldCopy(held), wcHeld{key: key}), false
		}
		return heldRemoveLast(held, key), false
	}
	if recv, ok := isWaitGroupMethod(p, call, "Wait"); ok {
		if key, renders := livenessKey(p, recv); renders {
			for _, h := range held {
				g.addEdge("lock:"+h.key, "wg:"+key, p, call.Pos(),
					"waiting on WaitGroup "+key+" while holding "+h.key)
			}
			g.wgWaitKeys = append(g.wgWaitKeys, key)
		}
		return held, false
	}
	for _, m := range []string{"Done", "Add"} {
		if recv, ok := isWaitGroupMethod(p, call, m); ok {
			if key, renders := livenessKey(p, recv); renders {
				g.wgDones = append(g.wgDones, wcWgOp{key: key, held: heldCopy(held), pkg: p, pos: call.Pos()})
			}
			return held, false
		}
	}
	return held, false
}

// acquireLock emits held→lock edges and the lock-order check for one
// acquisition. Re-acquiring a held lock yields the lock:K → lock:K self-loop.
func (g *wcGraph) acquireLock(p *Package, pos token.Pos, key string, held []wcHeld) {
	for _, h := range held {
		g.addEdge("lock:"+h.key, "lock:"+key, p, pos,
			"acquiring "+key+" while holding "+h.key)
		lvlHeld, okHeld := g.levels[h.key]
		lvlNew, okNew := g.levels[key]
		if okHeld && okNew && h.key != key && lvlHeld >= lvlNew {
			g.rep(p).report("wait-cycle", pos,
				"lock-order inversion: acquiring %s (level %d) while holding %s (level %d); the declared order in internal/invariant/lockorder.go requires strictly increasing levels",
				key, lvlNew, h.key, lvlHeld)
		}
	}
}

// chanOp records a channel operation and, when blocking, its held→chan
// edges.
func (g *wcGraph) chanOp(p *Package, pos token.Pos, key string, send, blocking bool, held []wcHeld) {
	g.chanOps = append(g.chanOps, wcChanOp{key: key, send: send, blocking: blocking, held: heldCopy(held), pkg: p, pos: pos})
	if !blocking {
		return
	}
	op := "receive from"
	if send {
		op = "send to"
	}
	for _, h := range held {
		g.addEdge("lock:"+h.key, "chan:"+key, p, pos,
			"blocking "+op+" "+key+" while holding "+h.key)
	}
}

// selectCommOp records the communication op of one select clause.
func (g *wcGraph) selectCommOp(p *Package, comm ast.Stmt, blocking bool, held []wcHeld) {
	switch comm := comm.(type) {
	case *ast.SendStmt:
		if key, ok := livenessKey(p, comm.Chan); ok {
			g.chanOp(p, comm.Pos(), key, true, blocking, held)
		}
	case *ast.ExprStmt:
		g.selectRecvOp(p, comm.X, blocking, held)
	case *ast.AssignStmt:
		for _, e := range comm.Rhs {
			g.selectRecvOp(p, e, blocking, held)
		}
	}
}

func (g *wcGraph) selectRecvOp(p *Package, e ast.Expr, blocking bool, held []wcHeld) {
	if ue, ok := unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		if key, ok := livenessKey(p, ue.X); ok {
			g.chanOp(p, ue.Pos(), key, false, blocking, held)
		}
	}
}

// scanExprOps finds blocking receives embedded in an expression (outside
// select statements a receive always blocks). Function literals are separate
// contexts and skipped.
func (g *wcGraph) scanExprOps(p *Package, e ast.Expr, held []wcHeld) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if key, ok := livenessKey(p, n.X); ok {
					g.chanOp(p, n.Pos(), key, false, true, held)
				}
			}
		}
		return true
	})
}

func (g *wcGraph) scanCallArgs(p *Package, call *ast.CallExpr, held []wcHeld) {
	for _, a := range call.Args {
		g.scanExprOps(p, a, held)
	}
}

// peerEdges adds the cross-goroutine direction: a blocked op on a channel
// (or WaitGroup) depends on the locks held wherever the matching op runs.
func (g *wcGraph) peerEdges() {
	bySendBlocked := map[string]wcChanOp{}
	byRecvBlocked := map[string]wcChanOp{}
	for _, op := range g.chanOps {
		if !op.blocking {
			continue
		}
		if op.send {
			if _, ok := bySendBlocked[op.key]; !ok {
				bySendBlocked[op.key] = op
			}
		} else if _, ok := byRecvBlocked[op.key]; !ok {
			byRecvBlocked[op.key] = op
		}
	}
	for _, op := range g.chanOps {
		if op.send {
			if blocked, ok := byRecvBlocked[op.key]; ok {
				for _, h := range op.held {
					g.addEdge("chan:"+op.key, "lock:"+h.key, blocked.pkg, blocked.pos,
						"a receive on "+op.key+" waits for a sender that holds "+h.key)
				}
			}
		} else {
			if blocked, ok := bySendBlocked[op.key]; ok {
				for _, h := range op.held {
					g.addEdge("chan:"+op.key, "lock:"+h.key, blocked.pkg, blocked.pos,
						"a send on "+op.key+" waits for a receiver that holds "+h.key)
				}
			}
		}
	}
	waited := map[string]bool{}
	for _, key := range g.wgWaitKeys {
		waited[key] = true
	}
	for _, done := range g.wgDones {
		if !waited[done.key] {
			continue
		}
		for _, h := range done.held {
			g.addEdge("wg:"+done.key, "lock:"+h.key, done.pkg, done.pos,
				"WaitGroup "+done.key+" completes only after code holding "+h.key+" runs Done")
		}
	}
}

// reportCycles runs SCC over the wait-for graph and reports every edge that
// sits inside a strongly connected component (or a lock self-loop).
func (g *wcGraph) reportCycles() {
	nodes := make([]string, 0, len(g.edges))
	for n := range g.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	// Tarjan SCC, iterative enough for our graph sizes via recursion.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	counter, comps := 0, 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(g.edges[v]))
		for to := range g.edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if _, seen := index[to]; !seen {
				strong(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = comps
				if w == v {
					break
				}
			}
			comps++
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}

	// Component membership count (a component is cyclic when it has ≥2
	// members, or a self-loop).
	size := map[int]int{}
	for _, c := range comp {
		size[c]++
	}
	members := map[int][]string{}
	for n, c := range comp {
		members[c] = append(members[c], n)
	}
	for _, from := range nodes {
		tos := make([]string, 0, len(g.edges[from]))
		for to := range g.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			cyclic := from == to ||
				(comp[from] == comp[to] && size[comp[from]] >= 2)
			if !cyclic {
				continue
			}
			e := g.edges[from][to]
			ms := members[comp[from]]
			sort.Strings(ms)
			g.rep(e.pkg).report("wait-cycle", e.pos,
				"wait-for edge %s → %s closes a static wait cycle through {%s}: %s — break the cycle or reorder the waits",
				from, to, strings.Join(ms, ", "), e.why)
		}
	}
}

// parseLockOrder reads the declared lock-order DAG: the LockOrder variable
// in the module's internal/invariant package, a [][]string of nominal lock
// keys grouped by level, earlier levels acquired first.
func parseLockOrder(prog *Program) map[string]int {
	levels := map[string]int{}
	for _, p := range prog.Pkgs {
		if p.RelPath != "internal/invariant" {
			continue
		}
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if name.Name != "LockOrder" || i >= len(vs.Values) {
							continue
						}
						outer, ok := vs.Values[i].(*ast.CompositeLit)
						if !ok {
							continue
						}
						for lvl, elt := range outer.Elts {
							inner, ok := elt.(*ast.CompositeLit)
							if !ok {
								continue
							}
							for _, se := range inner.Elts {
								lit, ok := se.(*ast.BasicLit)
								if !ok || lit.Kind != token.STRING {
									continue
								}
								if key, err := strconv.Unquote(lit.Value); err == nil {
									levels[key] = lvl
								}
							}
						}
					}
				}
			}
		}
	}
	return levels
}

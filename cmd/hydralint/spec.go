package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// The spec-driven verification engine. Packages declare their lock-free
// publication protocols as protocolspec.Spec literals (pure Go literals,
// parsed statically); this engine checks the declarations against the real
// code, through the call graph and write summaries, and splits its findings
// across four checks:
//
//	spec-order     the declared happens-before edges hold on every code
//	               path: the payload-before-release flow pass (allocation
//	               groups, publish/unpublish constants, mutate summaries),
//	               retract-before-free call ordering, and
//	               apply-after-replicate store ordering
//	spec-coverage  every atomic store to a spec'd word is sanctioned — a
//	               Writers entry, a covering apply edge, or a
//	               publish/unpublish constant / publishes function the
//	               flow pass orders — and every atomic word of a package a
//	               spec lists is declared by some spec
//	spec-drift     the spec names only words, functions, and markers
//	               that still exist (a spec that rots is worse than no
//	               spec)
//	spec-guard     the declared torn-read guards still compare against
//	               their bound, and reclaimers call their quiescence gate
//	               before any free
//
// All four share one specModel computed once per Program; each check
// emits only its own category, so restricted runs stay restricted.

// specFinding is one computed finding, held until its check is emitted.
type specFinding struct {
	p     *Package
	pos   token.Pos
	check string
	spec  string
	msg   string
}

// specWordDecl is one parsed protocolspec.Word.
type specWordDecl struct {
	spec    *specDecl
	pos     token.Pos
	name    string
	role    string
	writers []string
}

// specEdgeDecl is one parsed protocolspec.Edge.
type specEdgeDecl struct {
	spec *specDecl
	pos  token.Pos
	kind string
	from string
	to   string
}

// specGuardDecl is one parsed protocolspec.Guard.
type specGuardDecl struct {
	spec   *specDecl
	pos    token.Pos
	reader string
	bound  string
}

// specDecl is one parsed protocolspec.Spec literal.
type specDecl struct {
	p      *Package
	pos    token.Pos
	name   string
	pkgs   []string
	words  []*specWordDecl
	edges  []*specEdgeDecl
	guards []*specGuardDecl
}

// specModel is the whole-program spec view plus every computed finding.
type specModel struct {
	specs    []*specDecl
	findings []specFinding

	// wordDecls indexes every Word entry by nominal word id; a word may
	// be declared by several specs under different roles (the shared
	// word area is a guardian to kv, a ready word to the mailbox, and a
	// lease word to the lease protocol).
	wordDecls map[string][]*specWordDecl
	// writers is the per-word union of Writers entries (coverage
	// sanctioning); leaseWriters additionally exempts lease-word
	// writers from the after-publication flow check.
	writers      map[string]map[string]bool
	leaseWriters map[string]bool
	// pkgSpec attributes flow findings: import path -> first covering
	// spec name ("" for marker-only packages).
	pkgSpec map[string]string
}

func (sm *specModel) add(p *Package, pos token.Pos, check, spec, format string, args ...any) {
	sm.findings = append(sm.findings, specFinding{
		p: p, pos: pos, check: check, spec: spec, msg: fmt.Sprintf(format, args...),
	})
}

func specModelFor(prog *Program) *specModel {
	if prog.specModel != nil {
		return prog.specModel
	}
	sm := &specModel{
		wordDecls:    map[string][]*specWordDecl{},
		writers:      map[string]map[string]bool{},
		leaseWriters: map[string]bool{},
		pkgSpec:      map[string]string{},
	}
	prog.specModel = sm
	sm.parse(prog)
	sw := sm.sweep(prog)
	sm.checkDrift(prog, sw)
	sm.checkCoverage(prog, sw)
	sm.checkGuards(prog)
	sm.checkRetractOrder(prog)
	sm.checkApplyOrder(prog)
	sm.flowPass(prog)
	return sm
}

func emitSpecFindings(prog *Program, rep func(*Package) *Reporter, check string) {
	for _, f := range specModelFor(prog).findings {
		if f.check == check {
			rep(f.p).reportSpec(check, f.spec, f.pos, "%s", f.msg)
		}
	}
}

func runSpecOrder(prog *Program, rep func(*Package) *Reporter) {
	emitSpecFindings(prog, rep, "spec-order")
}
func runSpecCoverage(prog *Program, rep func(*Package) *Reporter) {
	emitSpecFindings(prog, rep, "spec-coverage")
}
func runSpecDrift(prog *Program, rep func(*Package) *Reporter) {
	emitSpecFindings(prog, rep, "spec-drift")
}
func runSpecGuard(prog *Program, rep func(*Package) *Reporter) {
	emitSpecFindings(prog, rep, "spec-guard")
}

// ---------------------------------------------------------------------------
// Parsing

// isProtocolSpecLit reports whether cl's type is protocolspec.Spec (matched
// by package-path suffix, so fixture modules with their own stub work).
func isProtocolSpecLit(p *Package, cl *ast.CompositeLit) bool {
	tv, ok := p.Info.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Spec" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/protocolspec")
}

func (sm *specModel) parse(prog *Program) {
	seen := map[string]bool{}
	for _, p := range prog.Pkgs {
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok || !isProtocolSpecLit(p, cl) {
					return true
				}
				sm.parseSpecLit(p, cl)
				return false
			})
		}
	}
	for _, d := range sm.specs {
		for _, w := range d.words {
			sm.wordDecls[w.name] = append(sm.wordDecls[w.name], w)
			for _, fn := range w.writers {
				if sm.writers[w.name] == nil {
					sm.writers[w.name] = map[string]bool{}
				}
				sm.writers[w.name][fn] = true
				if w.role == "lease-word" {
					sm.leaseWriters[fn] = true
				}
			}
		}
		for _, path := range d.pkgs {
			if _, taken := sm.pkgSpec[path]; !taken {
				sm.pkgSpec[path] = d.name
			}
		}
	}
}

func (sm *specModel) parseSpecLit(p *Package, cl *ast.CompositeLit) {
	d := &specDecl{p: p, pos: cl.Pos()}
	// Name first, so parse findings inside the literal carry it.
	for _, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
				d.name, _ = constString(p, kv.Value)
			}
		}
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			sm.add(p, elt.Pos(), "spec-drift", d.name,
				"protocolspec.Spec literals must use keyed fields so the spec engine can parse them statically")
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			if d.name == "" {
				sm.add(p, kv.Value.Pos(), "spec-drift", "", "Spec.Name must be a literal string")
			}
		case "Packages":
			d.pkgs = sm.specStringList(p, d, kv.Value, "Spec.Packages")
		case "Words":
			sm.parseSpecElems(p, d, kv.Value, "Spec.Words", func(lit *ast.CompositeLit) {
				w := &specWordDecl{spec: d, pos: lit.Pos()}
				for _, f := range lit.Elts {
					fkv, fkey, ok := sm.specField(p, d, f)
					if !ok {
						continue
					}
					switch fkey {
					case "Name":
						w.name = sm.specString(p, d, fkv.Value, "Word.Name")
					case "Role":
						w.role = sm.specString(p, d, fkv.Value, "Word.Role")
					case "Writers":
						w.writers = sm.specStringList(p, d, fkv.Value, "Word.Writers")
					}
				}
				d.words = append(d.words, w)
			})
		case "Edges":
			sm.parseSpecElems(p, d, kv.Value, "Spec.Edges", func(lit *ast.CompositeLit) {
				e := &specEdgeDecl{spec: d, pos: lit.Pos()}
				for _, f := range lit.Elts {
					fkv, fkey, ok := sm.specField(p, d, f)
					if !ok {
						continue
					}
					switch fkey {
					case "Kind":
						e.kind = sm.specString(p, d, fkv.Value, "Edge.Kind")
					case "From":
						e.from = sm.specString(p, d, fkv.Value, "Edge.From")
					case "To":
						e.to = sm.specString(p, d, fkv.Value, "Edge.To")
					}
				}
				d.edges = append(d.edges, e)
			})
		case "Guards":
			sm.parseSpecElems(p, d, kv.Value, "Spec.Guards", func(lit *ast.CompositeLit) {
				g := &specGuardDecl{spec: d, pos: lit.Pos()}
				for _, f := range lit.Elts {
					fkv, fkey, ok := sm.specField(p, d, f)
					if !ok {
						continue
					}
					switch fkey {
					case "Reader":
						g.reader = sm.specString(p, d, fkv.Value, "Guard.Reader")
					case "Bound":
						g.bound = sm.specString(p, d, fkv.Value, "Guard.Bound")
					}
				}
				d.guards = append(d.guards, g)
			})
		}
	}
	sm.specs = append(sm.specs, d)
}

// specField unwraps one keyed field of a nested spec element.
func (sm *specModel) specField(p *Package, d *specDecl, elt ast.Expr) (*ast.KeyValueExpr, string, bool) {
	kv, ok := elt.(*ast.KeyValueExpr)
	if !ok {
		sm.add(p, elt.Pos(), "spec-drift", d.name,
			"spec elements must use keyed fields so the spec engine can parse them statically")
		return nil, "", false
	}
	key, ok := kv.Key.(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	return kv, key.Name, true
}

func (sm *specModel) specString(p *Package, d *specDecl, e ast.Expr, what string) string {
	if s, ok := constString(p, e); ok {
		return s
	}
	sm.add(p, e.Pos(), "spec-drift", d.name,
		"%s must be a constant string so the spec engine can parse it statically", what)
	return ""
}

func (sm *specModel) specStringList(p *Package, d *specDecl, e ast.Expr, what string) []string {
	cl, ok := unparen(e).(*ast.CompositeLit)
	if !ok {
		sm.add(p, e.Pos(), "spec-drift", d.name, "%s must be a literal []string", what)
		return nil
	}
	var out []string
	for _, elt := range cl.Elts {
		s, ok := constString(p, elt)
		if !ok {
			sm.add(p, elt.Pos(), "spec-drift", d.name, "%s entries must be constant strings", what)
			continue
		}
		out = append(out, s)
	}
	return out
}

func (sm *specModel) parseSpecElems(p *Package, d *specDecl, e ast.Expr, what string, parse func(*ast.CompositeLit)) {
	cl, ok := unparen(e).(*ast.CompositeLit)
	if !ok {
		sm.add(p, e.Pos(), "spec-drift", d.name, "%s must be a literal slice", what)
		return
	}
	for _, elt := range cl.Elts {
		lit, ok := unparen(elt).(*ast.CompositeLit)
		if !ok {
			sm.add(p, elt.Pos(), "spec-drift", d.name, "%s entries must be composite literals", what)
			continue
		}
		parse(lit)
	}
}

// ---------------------------------------------------------------------------
// The atomic sweep (shared by drift and coverage)

// specStore is one atomic write to a spec'd word in production code.
type specStore struct {
	p         *Package
	call      *ast.CallExpr
	pos       token.Pos
	word      string
	enclosing string // FullName of the enclosing function, "" at file scope
}

// specSweep is what one pass over every production file records.
type specSweep struct {
	// accessed is every nominal atomic word any package accesses
	// (drift's existence oracle); stores is every write into a spec'd
	// word (coverage's work list).
	accessed map[string]bool
	stores   []specStore
	// undeclared holds the first site of every atomic word that a
	// package some spec lists accesses and no spec declares.
	undeclared []specSite
}

// specSite is the first production site of a word in a package.
type specSite struct {
	p    *Package
	pos  token.Pos
	word string
}

// sweep walks every loaded package's production files once.
func (sm *specModel) sweep(prog *Program) *specSweep {
	sw := &specSweep{accessed: map[string]bool{}}
	seen := map[string]bool{}
	for _, p := range prog.Pkgs {
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		_, spec := sm.pkgSpec[p.ImportPath]
		seenWord := map[string]bool{}
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			for _, decl := range f.Decls {
				full := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						full = obj.FullName()
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					id, pos, ok := atomicAccessWord(p, call)
					if !ok {
						return true
					}
					sw.accessed[id] = true
					if spec && !seenWord[id] && len(sm.wordDecls[id]) == 0 {
						sw.undeclared = append(sw.undeclared, specSite{p, pos, id})
					}
					seenWord[id] = true
					if len(sm.wordDecls[id]) > 0 && atomicOpWrites(call) {
						sw.stores = append(sw.stores, specStore{p: p, call: call, pos: pos, word: id, enclosing: full})
					}
					return true
				})
			}
		}
	}
	return sw
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

// ---------------------------------------------------------------------------
// spec-drift

var specRoles = map[string]bool{
	"guardian": true, "payload-group": true, "pub-word": true,
	"ready-word": true, "commit-word": true, "lease-word": true,
}

var specEdgeKinds = map[string]bool{
	"payload-before-release": true, "retract-before-free": true,
	"apply-after-replicate": true,
}

// specOwnerPkg extracts the owning import path from a nominal word or
// function name: "(*hydradb/internal/kv.Store).Put" and
// "hydradb/internal/kv.Store.pub[]" both resolve to "hydradb/internal/kv".
func specOwnerPkg(name string) string {
	s := strings.TrimPrefix(name, "(*")
	s = strings.TrimPrefix(s, "(")
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return ""
	}
	return s[:slash+1+dot]
}

// checkFunc flags a declared function that no loaded package defines.
// Packages outside the run's load set are not judged.
func (sm *specModel) checkFunc(prog *Program, loaded map[string]bool, d *specDecl, pos token.Pos, name string) {
	owner := specOwnerPkg(name)
	if owner == "" || !loaded[owner] {
		return
	}
	if prog.funcs[name] == nil {
		sm.add(d.p, pos, "spec-drift", d.name,
			"spec %s names function %s, but no loaded package declares it; the spec entry is stale", d.name, name)
	}
}

func (sm *specModel) checkDrift(prog *Program, sw *specSweep) {
	loaded := map[string]bool{}
	for _, p := range prog.Pkgs {
		loaded[p.ImportPath] = true
	}
	m := prog.markersFor()

	for _, d := range sm.specs {
		declared := map[string]*specWordDecl{}
		for _, w := range d.words {
			declared[w.name] = w
			if w.role != "" && !specRoles[w.role] {
				sm.add(d.p, w.pos, "spec-drift", d.name,
					"spec %s declares unknown word role %q; the vocabulary is guardian, payload-group, pub-word, ready-word, commit-word, lease-word", d.name, w.role)
			}
			if owner := specOwnerPkg(w.name); owner != "" && loaded[owner] && !sw.accessed[w.name] {
				sm.add(d.p, w.pos, "spec-drift", d.name,
					"spec %s declares atomic word %s, but no loaded package accesses it; the declaration is stale", d.name, w.name)
			}
			for _, fn := range w.writers {
				sm.checkFunc(prog, loaded, d, w.pos, fn)
			}
		}
		for _, e := range d.edges {
			if !specEdgeKinds[e.kind] {
				sm.add(d.p, e.pos, "spec-drift", d.name,
					"spec %s declares unknown edge kind %q; the vocabulary is payload-before-release, retract-before-free, apply-after-replicate", d.name, e.kind)
				continue
			}
			switch e.kind {
			case "payload-before-release":
				if owner := specOwnerPkg(e.from); owner != "" && loaded[owner] {
					if !m.publishConsts[e.from] && !m.publishesFuncs[e.from] {
						sm.add(d.p, e.pos, "spec-drift", d.name,
							"spec %s edge payload-before-release names %s, but it carries no hydralint:publish or hydralint:publishes marker; the flow pass cannot see the release", d.name, e.from)
					}
				}
				if declared[e.to] == nil {
					sm.add(d.p, e.pos, "spec-drift", d.name,
						"spec %s edge targets word %s, which the spec's Words do not declare", d.name, e.to)
				}
			case "retract-before-free":
				if owner := specOwnerPkg(e.from); owner != "" && loaded[owner] && !m.unpublishConsts[e.from] {
					sm.add(d.p, e.pos, "spec-drift", d.name,
						"spec %s edge retract-before-free names %s, but it carries no hydralint:unpublish marker; the flow pass cannot see the retraction", d.name, e.from)
				}
				sm.checkFunc(prog, loaded, d, e.pos, e.to)
			case "apply-after-replicate":
				if strings.Contains(e.from, ".") {
					sm.checkFunc(prog, loaded, d, e.pos, e.from)
				}
				if declared[e.to] == nil {
					sm.add(d.p, e.pos, "spec-drift", d.name,
						"spec %s edge targets word %s, which the spec's Words do not declare", d.name, e.to)
				}
			}
		}
		for _, g := range d.guards {
			sm.checkFunc(prog, loaded, d, g.pos, g.reader)
		}
	}
}

// ---------------------------------------------------------------------------
// spec-coverage

func (sm *specModel) checkCoverage(prog *Program, sw *specSweep) {
	// A word no spec declares has no sanctioned writers to check, so the
	// store check below cannot see it; in a protocol package that is itself
	// the finding.
	for _, s := range sw.undeclared {
		sm.add(s.p, s.pos, "spec-coverage", sm.pkgSpec[s.p.ImportPath],
			"atomic word %s in %s, a package spec %s lists, is declared by no spec; declare it in the owning protocolspec.Spec",
			s.word, s.p.ImportPath, sm.pkgSpec[s.p.ImportPath])
	}
	m := prog.markersFor()
	applyCovered := map[string]bool{}
	for _, d := range sm.specs {
		for _, e := range d.edges {
			if e.kind == "apply-after-replicate" {
				applyCovered[e.to] = true
			}
		}
	}
	for _, st := range sw.stores {
		if st.enclosing != "" && sm.writers[st.word][st.enclosing] {
			continue
		}
		// A word covered by an apply edge is sanctioned everywhere: any
		// store without a preceding apply call is a spec-order finding,
		// which is the stronger statement.
		if applyCovered[st.word] {
			continue
		}
		if m.publishesFuncs[st.enclosing] || m.unpublishesFuncs[st.enclosing] {
			continue
		}
		if _, vals, ok := atomicOperands(st.p, st.call); ok {
			sanctioned := false
			for _, v := range vals {
				if key, isConst := constKeyOf(st.p, v); isConst && (m.publishConsts[key] || m.unpublishConsts[key]) {
					sanctioned = true
				}
			}
			if sanctioned {
				continue
			}
		}
		decl := sm.wordDecls[st.word][0]
		sm.add(st.p, st.pos, "spec-coverage", decl.spec.name,
			"atomic store to spec'd word %s (role %s) has no covering Writers entry or protocol edge in spec %s; declare the writer or route the store through a declared protocol function",
			st.word, decl.role, decl.spec.name)
	}
}

// ---------------------------------------------------------------------------
// spec-guard

func specComparisonOp(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

func specMentionsName(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func (sm *specModel) checkGuards(prog *Program) {
	for _, d := range sm.specs {
		for _, g := range d.guards {
			info := prog.funcs[g.reader]
			if info == nil || info.Decl.Body == nil {
				continue // existence is spec-drift's finding
			}
			found := false
			ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
				if be, ok := n.(*ast.BinaryExpr); ok && specComparisonOp(be.Op) {
					if specMentionsName(be.X, g.bound) || specMentionsName(be.Y, g.bound) {
						found = true
					}
				}
				return !found
			})
			if !found {
				sm.add(info.Pkg, info.Decl.Pos(), "spec-guard", d.name,
					"torn-read guard declared by spec %s: %s has no comparison against %s; the guard was removed or renamed",
					d.name, g.reader, g.bound)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// spec-order: retract-before-free and apply-after-replicate sub-passes
// (payload-before-release is the flow pass in check_specorder.go)

// forEachProdFunc walks every production FuncDecl exactly once, in
// deterministic package/file order.
func forEachProdFunc(prog *Program, visit func(p *Package, fd *ast.FuncDecl)) {
	seen := map[string]bool{}
	for _, p := range prog.Pkgs {
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		for _, f := range p.Files {
			if p.isTestFile(f) {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					visit(p, fd)
				}
			}
		}
	}
}

// checkRetractOrder: in any function that both stores the retraction
// constant and calls the declared freeing function, the retraction must
// come first — otherwise a one-sided reader can validate against already
// recycled memory. Functions that free without retracting are reclaimers
// (the retraction happened at detach) or never published, so they are not
// judged here.
func (sm *specModel) checkRetractOrder(prog *Program) {
	type edge struct {
		d        *specDecl
		from, to string
	}
	var edges []edge
	for _, d := range sm.specs {
		for _, e := range d.edges {
			if e.kind == "retract-before-free" {
				edges = append(edges, edge{d, e.from, e.to})
			}
		}
	}
	if len(edges) == 0 {
		return
	}
	forEachProdFunc(prog, func(p *Package, fd *ast.FuncDecl) {
		for _, e := range edges {
			var retractPos, freePos token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, a := range call.Args {
					if key, isConst := constKeyOf(p, a); isConst && key == e.from {
						if retractPos == token.NoPos || call.Pos() < retractPos {
							retractPos = call.Pos()
						}
					}
				}
				if callee, _, ok := prog.resolveCallee(p, call); ok && callee.Obj.FullName() == e.to {
					if freePos == token.NoPos || call.Pos() < freePos {
						freePos = call.Pos()
					}
				}
				return true
			})
			if retractPos != token.NoPos && freePos != token.NoPos && freePos < retractPos {
				sm.add(p, freePos, "spec-order", e.d.name,
					"call to %s precedes the retraction store of %s (spec %s, retract-before-free); store the hydralint:unpublish constant before freeing",
					e.to, e.from, e.d.name)
			}
		}
	})
}

// checkApplyOrder: every atomic store to the edge's commit word must be
// preceded, in the same function, by a call to the applying function —
// matched by full name, or by bare method name when From is undotted
// (appliers are usually interface-typed and unresolvable statically).
func (sm *specModel) checkApplyOrder(prog *Program) {
	type edge struct {
		d        *specDecl
		from, to string
	}
	var edges []edge
	for _, d := range sm.specs {
		for _, e := range d.edges {
			if e.kind == "apply-after-replicate" {
				edges = append(edges, edge{d, e.from, e.to})
			}
		}
	}
	if len(edges) == 0 {
		return
	}
	forEachProdFunc(prog, func(p *Package, fd *ast.FuncDecl) {
		for _, e := range edges {
			applyPos := token.NoPos
			var storePositions []token.Pos
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if specCallMatches(prog, p, call, e.from) {
					if applyPos == token.NoPos || call.Pos() < applyPos {
						applyPos = call.Pos()
					}
					return true
				}
				if id, pos, ok := atomicAccessWord(p, call); ok && id == e.to && atomicOpWrites(call) {
					storePositions = append(storePositions, pos)
				}
				return true
			})
			for _, pos := range storePositions {
				if applyPos == token.NoPos || applyPos > pos {
					sm.add(p, pos, "spec-order", e.d.name,
						"store to %s without a preceding %s call (spec %s, apply-after-replicate); the watermark must not run ahead of the applied record",
						e.to, e.from, e.d.name)
				}
			}
		}
	})
}

// specCallMatches matches a call site against an edge's From function:
// dotted names resolve through the call graph, bare names match the call
// expression's selector or identifier.
func specCallMatches(prog *Program, p *Package, call *ast.CallExpr, from string) bool {
	if strings.Contains(from, ".") {
		callee, _, ok := prog.resolveCallee(p, call)
		return ok && callee.Obj.FullName() == from
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == from
	case *ast.Ident:
		return fun.Name == from
	}
	return false
}

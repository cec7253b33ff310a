package main

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// hotPathPackages are the module-relative packages forming the shard hot
// path: the event loop itself plus the store and index it drives. §4.1.1's
// whole performance argument is that this path is single-threaded and
// lock-free, so concurrency primitives here are design violations, not
// style nits.
var hotPathPackages = map[string]bool{
	"internal/shard":     true,
	"internal/kv":        true,
	"internal/hashtable": true,
}

// shardExclusivityAllowlist names files exempt from the check. The
// pipelined dispatcher/worker variant exists only as the §6.2.1/Fig. 5(a)
// ablation baseline — it is the measured counterexample, so it legitimately
// uses a mutex, goroutines, and a channel-backed work queue.
var shardExclusivityAllowlist = map[string]bool{
	"internal/shard/pipelined.go": true,
}

// runShardExclusivity flags go statements, sync.Mutex/RWMutex usage, and
// channel sends inside the hot-path packages.
func runShardExclusivity(p *Package, r *Reporter) {
	if !hotPathPackages[p.RelPath] {
		return
	}
	for _, f := range p.Files {
		if p.isTestFile(f) {
			// Test harnesses drive shards from helper goroutines and
			// channels by design; exclusivity binds the production path.
			continue
		}
		rel := filepath.ToSlash(filepath.Join(p.RelPath, filepath.Base(p.Fset.Position(f.Pos()).Filename)))
		if shardExclusivityAllowlist[rel] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				r.report("shard-exclusivity", n.Pos(),
					"go statement on the shard hot path; the shard thread owns this partition exclusively (§4.1.1)")
			case *ast.SendStmt:
				r.report("shard-exclusivity", n.Pos(),
					"channel send on the shard hot path; requests flow through RDMA mailboxes, not channels (§4.2.1)")
			case *ast.SelectorExpr:
				// Type mention: sync.Mutex / sync.RWMutex in a field or var
				// declaration, composite literal, or conversion.
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok &&
						pn.Imported().Path() == "sync" &&
						(n.Sel.Name == "Mutex" || n.Sel.Name == "RWMutex") {
						r.report("shard-exclusivity", n.Pos(),
							"sync.%s on the shard hot path; the data path must stay lock-free (§4.1.1)", n.Sel.Name)
						return true
					}
				}
				// Method call on a mutex-typed receiver (covers mutexes
				// embedded in or reached through other structs).
				if sel, ok := p.Info.Selections[n]; ok && isMutexMethod(sel) {
					r.report("shard-exclusivity", n.Pos(),
						"%s on a sync mutex along the shard hot path (§4.1.1)", n.Sel.Name)
				}
			}
			return true
		})
	}
}

// isMutexMethod reports whether the selection resolves to a method declared
// on sync.Mutex or sync.RWMutex — including promoted methods of an embedded
// mutex, where the selection's receiver is the outer struct.
func isMutexMethod(sel *types.Selection) bool {
	if sel.Kind() != types.MethodVal {
		return false
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// The spec-order flow pass is steered by declaration-site markers, all
// sharing the //hydralint: prefix of the pragma family:
//
//	//hydralint:region <why>         slice field/var whose backing store is a
//	                                 registered RDMA region; writes into it
//	                                 are payload writes
//	//hydralint:region-view <why>    func/method whose result aliases a region
//	                                 (Data(), Bytes(), ...)
//	//hydralint:offset-source <why>  func producing offsets into a region
//	                                 (allocators); its results name an item's
//	                                 payload group
//	//hydralint:publish <why>        const whose store to a guardian word
//	                                 makes an item remotely visible
//	//hydralint:unpublish <why>      const whose store retracts visibility
//	//hydralint:publishes <why>      func whose first indicator store is the
//	                                 publication point for its payload
//	//hydralint:unpublishes <why>    func that retracts visibility (clears
//	                                 indicators, stores a dead guardian);
//	                                 writes after it are allowed again
//
// The markers are collected once per run into a program-wide table keyed by
// the nominal identities wordID renders ("pkgpath.Type.field",
// "pkgpath.var") plus types.Func full names, so they resolve across package
// boundaries without shared object identity.
type progMarkers struct {
	regionKeys        map[string]bool // region-backed slice fields / vars
	regionViewFuncs   map[string]bool // funcs returning region views
	offsetSourceFuncs map[string]bool // offset producers
	publishConsts     map[string]bool // "pkgpath.Name" of publish constants
	unpublishConsts   map[string]bool
	publishesFuncs    map[string]bool
	unpublishesFuncs  map[string]bool
}

// markersFor collects (once) every spec-order marker in the loaded program.
func (prog *Program) markersFor() *progMarkers {
	if prog.markers != nil {
		return prog.markers
	}
	m := &progMarkers{
		regionKeys:        map[string]bool{},
		regionViewFuncs:   map[string]bool{},
		offsetSourceFuncs: map[string]bool{},
		publishConsts:     map[string]bool{},
		unpublishConsts:   map[string]bool{},
		publishesFuncs:    map[string]bool{},
		unpublishesFuncs:  map[string]bool{},
	}
	prog.markers = m
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					m.collectFunc(p, d)
				case *ast.GenDecl:
					m.collectGen(p, d)
				}
			}
		}
	}
	return m
}

func (m *progMarkers) collectFunc(p *Package, fd *ast.FuncDecl) {
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	name := fn.FullName()
	if docHasMarker(fd.Doc, "hydralint:publishes") {
		m.publishesFuncs[name] = true
	}
	if docHasMarker(fd.Doc, "hydralint:unpublishes") {
		m.unpublishesFuncs[name] = true
	}
	if docHasMarker(fd.Doc, "hydralint:offset-source") {
		m.offsetSourceFuncs[name] = true
	}
	if docHasMarker(fd.Doc, "hydralint:region-view") {
		m.regionViewFuncs[name] = true
	}
}

func (m *progMarkers) collectGen(p *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		switch spec := spec.(type) {
		case *ast.TypeSpec:
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				continue
			}
			tn, ok := p.Info.Defs[spec.Name].(*types.TypeName)
			if !ok || tn.Pkg() == nil {
				continue
			}
			prefix := tn.Pkg().Path() + "." + tn.Name() + "."
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					m.collectKeyed(prefix+name.Name, field.Doc, field.Comment)
				}
			}
		case *ast.ValueSpec:
			for _, name := range spec.Names {
				obj := p.Info.Defs[name]
				switch obj := obj.(type) {
				case *types.Var:
					if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
						continue
					}
					m.collectKeyed(obj.Pkg().Path()+"."+obj.Name(), spec.Doc, spec.Comment, gd.Doc)
				case *types.Const:
					if obj.Pkg() == nil {
						continue
					}
					key := obj.Pkg().Path() + "." + obj.Name()
					if anyHasMarker("hydralint:publish", spec.Doc, spec.Comment) {
						m.publishConsts[key] = true
					}
					if anyHasMarker("hydralint:unpublish", spec.Doc, spec.Comment) {
						m.unpublishConsts[key] = true
					}
				}
			}
		}
	}
}

// collectKeyed records a region marker on the field or var named key.
func (m *progMarkers) collectKeyed(key string, groups ...*ast.CommentGroup) {
	if anyHasMarker("hydralint:region", groups...) {
		m.regionKeys[key] = true
	}
}

// docHasMarker reports whether any comment of doc mentions marker.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// anyHasMarker reports whether a comment of any group starts with the
// marker. directiveRest requires a word boundary after the marker, so
// "hydralint:region" never matches the longer "hydralint:region-view".
func anyHasMarker(marker string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if _, ok := directiveRest(commentText(c), marker); ok {
				return true
			}
		}
	}
	return false
}

// constKeyOf resolves an expression naming a declared constant to its
// "pkgpath.Name" key (for publish/unpublish matching); literals and
// non-constant expressions return ok=false.
func constKeyOf(p *Package, e ast.Expr) (string, bool) {
	e = unparen(e)
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[x.Sel]
	default:
		return "", false
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil {
		return "", false
	}
	return c.Pkg().Path() + "." + c.Name(), true
}

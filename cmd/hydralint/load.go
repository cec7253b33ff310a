package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked module package under analysis.
type Package struct {
	ImportPath string
	// RelPath is the module-relative import path ("" for the module root,
	// "internal/kv" for hydradb/internal/kv). Path-scoped checks key off it
	// so linter fixtures living in other module roots behave identically.
	RelPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
	Pkg     *types.Package
}

// isInternal reports whether the package sits under the module's internal/
// tree — the scope of the data-plane checks.
func (p *Package) isInternal() bool {
	return p.RelPath == "internal" || strings.HasPrefix(p.RelPath, "internal/")
}

// isTestFile reports whether f was parsed from a _test.go file. Checks whose
// rules only govern production code (clock-discipline, shard-exclusivity,
// atomic-word's function-style rule) use it to skip test sources when -tests
// is on.
func (p *Package) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	ForTest      string // for test variants: the import path under test
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path, Dir string }
	Error        *struct{ Err string }
}

func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load resolves patterns with the go tool, parses every matched module
// package, and type-checks it against the export data of its dependencies.
// Only files of the default build configuration are analyzed (build-tag-gated
// hydradebug variants cannot coexist in one type-check pass anyway). When
// tests is set, in-package _test.go files are checked together with the
// production sources, and external (package foo_test) test files become a
// separate *Package whose importer prefers the test variant of the package
// under test, so export_test.go shims resolve. A non-empty overlay names a
// go-command overlay file ({"Replace": {file: replacement}}): the go tool
// builds, and the linter parses, each replacement in place of its file.
func load(dir string, patterns []string, tests bool, overlay string) ([]*Package, error) {
	const fields = "-json=ImportPath,Dir,Export,Standard,ForTest,GoFiles,TestGoFiles,XTestGoFiles,Module,Error"
	var replace struct{ Replace map[string]string }
	if overlay != "" {
		src, err := os.ReadFile(overlay)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(src, &replace); err != nil {
			return nil, fmt.Errorf("overlay %s: %v", overlay, err)
		}
		patterns = append([]string{"-overlay=" + overlay}, patterns...)
	}

	// One walk with -deps -export compiles (or reuses the build cache for)
	// every dependency so the stdlib gc importer can read export data —
	// the stdlib-only substitute for golang.org/x/tools/go/packages. With
	// tests, -test adds the test variants (and their extra dependencies):
	// a variant entry carries ForTest, the import path it recompiles.
	depArgs := []string{"-deps", "-export"}
	if tests {
		depArgs = append(depArgs, "-test")
	}
	deps, err := goList(dir, append(append(depArgs, fields), patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	testExports := map[string]string{}
	for _, p := range deps {
		if p.Export == "" {
			continue
		}
		if p.ForTest != "" {
			// Both the in-package variant ("pkg [pkg.test]") and the
			// external test package ("pkg_test [pkg.test]") carry ForTest;
			// only the former is importable under the package's own path.
			base := p.ImportPath
			if i := strings.Index(base, " ["); i >= 0 {
				base = base[:i]
			}
			if base == p.ForTest {
				testExports[p.ForTest] = p.Export
			}
		} else {
			exports[p.ImportPath] = p.Export
		}
	}

	targets, err := goList(dir, append([]string{fields}, patterns...)...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	lookupIn := func(m map[string]string, path string) (io.ReadCloser, error) {
		if f, ok := m[path]; ok {
			return os.Open(f)
		}
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return lookupIn(exports, path)
	})

	check := func(importPath, rel, dir string, names []string, imp types.Importer) (*Package, error) {
		var files []*ast.File
		for _, gf := range names {
			path := filepath.Join(dir, gf)
			var src any // nil: the parser reads path
			if repl, ok := replace.Replace[path]; ok {
				b, err := os.ReadFile(repl)
				if err != nil {
					return nil, err
				}
				src = b
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var typeErrs []string
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				typeErrs = append(typeErrs, err.Error())
			},
		}
		pkg, _ := conf.Check(importPath, fset, files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("type-checking %s:\n\t%s", importPath, strings.Join(typeErrs, "\n\t"))
		}
		return &Package{
			ImportPath: importPath,
			RelPath:    rel,
			Dir:        dir,
			Fset:       fset,
			Files:      files,
			Info:       info,
			Pkg:        pkg,
		}, nil
	}

	var out []*Package
	for _, t := range targets {
		if t.Standard || t.Error != nil && len(t.GoFiles) == 0 {
			continue
		}
		rel := ""
		if t.Module != nil && t.ImportPath != t.Module.Path {
			rel = strings.TrimPrefix(t.ImportPath, t.Module.Path+"/")
		}
		names := t.GoFiles
		if tests {
			names = append(append([]string{}, t.GoFiles...), t.TestGoFiles...)
		}
		p, err := check(t.ImportPath, rel, t.Dir, names, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, p)

		if tests && len(t.XTestGoFiles) > 0 {
			// External test package: imports the package under test by its
			// normal path, but must see the test variant's export data.
			underTest := t.ImportPath
			ximp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
				if path == underTest {
					return lookupIn(testExports, path)
				}
				return lookupIn(exports, path)
			})
			xp, err := check(t.ImportPath+"_test", rel, t.Dir, t.XTestGoFiles, ximp)
			if err != nil {
				return nil, err
			}
			out = append(out, xp)
		}
	}
	return out, nil
}

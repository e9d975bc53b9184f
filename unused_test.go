package spechint_bench

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnusedExports fails on every exported function or method of an
// internal package that nothing outside that package refers to: not
// production code, not another package's tests, not bench/perf, cmd or
// examples. A method through which its type implements an interface is not a
// finding, since it may be called through the interface. The scan parses and
// type-checks the whole tree from source with go/parser and go/types, so it
// needs nothing beyond the toolchain; `make unused` runs it on its own.
func TestNoUnusedExports(t *testing.T) {
	findings, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d exported functions or methods have no caller outside their package: lower-case them, move them into the package's _test.go, or delete them", len(findings))
	}
}

// srcPkg is one directory of the tree, split the way `go test` compiles it.
type srcPkg struct {
	files  []*ast.File // the package proper
	tests  []*ast.File // _test.go files in the same package
	xtests []*ast.File // _test.go files of the external package_test
}

type exportScan struct {
	fset    *token.FileSet
	pkgs    map[string]*srcPkg
	checked map[string]*types.Package // the package proper, by import path
	defs    map[string]*types.Info    // its Defs, by import path
	std     types.Importer
	used    map[token.Pos]bool // declaration positions of funcs used from another package
	ifaces  map[*types.Interface]bool
}

// Import resolves a repository path to the package proper and anything else
// to the standard library.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if s.pkgs[path] == nil {
		return s.std.Import(path)
	}
	if p := s.checked[path]; p != nil {
		return p, nil
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	p, err := s.check(path, path, s.pkgs[path].files, s, info)
	if err != nil {
		return nil, err
	}
	s.checked[path], s.defs[path] = p, info
	s.collectInterfaces(p)
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// xtestImporter is the importer of path's external tests. As under `go
// test`, they see path built with its in-package tests (self), and every
// repository package that imports path is rebuilt against that build.
func (s *exportScan) xtestImporter(path string, self *types.Package) types.Importer {
	built := map[string]*types.Package{path: self}
	var imp importerFunc
	imp = func(q string) (*types.Package, error) {
		if p := built[q]; p != nil {
			return p, nil
		}
		if s.pkgs[q] == nil || !imports(s.checked[q], path) {
			return s.Import(q)
		}
		p, err := s.check(q, q, s.pkgs[q].files, imp, &types.Info{})
		built[q] = p
		return p, err
	}
	return imp
}

// imports reports whether p depends on the package at path.
func imports(p *types.Package, path string) bool {
	for _, q := range p.Imports() {
		if q.Path() == path || imports(q, path) {
			return true
		}
	}
	return false
}

// check type-checks files as package path and records every use of a
// function declared outside home, the package whose code the files are.
func (s *exportScan) check(path, home string, files []*ast.File, imp types.Importer, info *types.Info) (*types.Package, error) {
	info.Uses = map[*ast.Ident]types.Object{}
	var firstErr error
	conf := types.Config{Importer: imp, Error: func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}}
	p, _ := conf.Check(path, s.fset, files, info)
	if firstErr != nil {
		return nil, firstErr
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != home {
			s.used[fn.Origin().Pos()] = true
		}
	}
	return p, nil
}

// collectInterfaces records every non-empty interface a package and its
// imports declare, the universe's error included.
func (s *exportScan) collectInterfaces(p *types.Package) {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					s.ifaces[it] = true
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	walk(p)
	s.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
}

// receiver returns the named type method m is declared on.
func receiver(m *types.Func) *types.Named {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named)
}

// implements reports whether method m lets its receiver type satisfy some
// interface that has a method of that name.
func (s *exportScan) implements(m *types.Func) bool {
	named := receiver(m)
	if named.TypeParams().Len() > 0 {
		return false
	}
	for it := range s.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// unusedExports scans the tree under root (the module root) and returns one
// line per finding, sorted.
func unusedExports(root string) ([]string, error) {
	s := &exportScan{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*srcPkg{},
		checked: map[string]*types.Package{},
		defs:    map[string]*types.Info{},
		used:    map[token.Pos]bool{},
		ifaces:  map[*types.Interface]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.parseTree(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for path := range s.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// Every package proper, then every test build: each records the uses it
	// makes of other packages' functions.
	for _, path := range paths {
		p := s.pkgs[path]
		if len(p.files) > 0 {
			if _, err := s.Import(path); err != nil {
				return nil, err
			}
		}
	}
	for _, path := range paths {
		p := s.pkgs[path]
		self := s.checked[path]
		if len(p.tests) > 0 {
			var err error
			files := append(append([]*ast.File(nil), p.files...), p.tests...)
			self, err = s.check(path, path, files, s, &types.Info{})
			if err != nil {
				return nil, err
			}
		}
		if len(p.xtests) > 0 {
			if _, err := s.check(path+"_test", path, p.xtests, s.xtestImporter(path, self), &types.Info{}); err != nil {
				return nil, err
			}
		}
	}

	var findings []string
	for _, path := range paths {
		if !strings.HasPrefix(path, "spechint/internal/") {
			continue // main packages and the benchmark module export nothing
		}
		for _, f := range s.pkgs[path].files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := s.defs[path].Defs[fd.Name].(*types.Func)
				if s.used[fn.Pos()] || (fd.Recv != nil && s.implements(fn)) {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil {
					name = receiver(fn).Obj().Name() + "." + name
				}
				pos := s.fset.Position(fd.Pos())
				findings = append(findings, fmt.Sprintf("%s:%d: %s.%s has no caller outside its package",
					pos.Filename, pos.Line, fn.Pkg().Name(), name))
			}
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// parseTree parses every buildable .go file under root into s.pkgs. A
// directory's import path is the module path plus its relative path; the
// nested bench/perf module follows the same rule.
func (s *exportScan) parseTree(root string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if base := d.Name(); dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := "spechint"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p := &srcPkg{}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
		}
		if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
			s.pkgs[path] = p
		}
		return nil
	})
}

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
// examples. It fails too on every unexported package-level function, method,
// type, constant or variable, and every unexported struct field, of an
// internal package's production code that nothing reads, the package's own
// tests included: assigning a variable or field, incrementing it or naming it
// in a keyed literal does not read it. A method through which its type
// implements an interface is not a finding, since it may be called through
// the interface. Two rules exempt what is read without being named: the first
// constant of an iota group (the zero value it names is what an unset
// variable holds), and every field of a struct type whose values are compared
// with == or !=, used as map keys or passed as a comparable type argument (the
// comparison reads them all). The scan parses and type-checks the whole tree
// from source with go/parser and go/types, so it needs nothing beyond the
// toolchain; `make unused` runs it on its own.
func TestNoUnusedExports(t *testing.T) {
	findings, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	if len(findings) > 0 {
		t.Logf("%d findings: lower-case an export with no caller outside its package or move it into the package's _test.go; delete what nothing reads", len(findings))
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
	read    map[token.Pos]bool // declaration positions of objects some code reads
	writes  map[token.Pos]bool // identifiers assigned or incremented (false) or a keyed literal's key (true)
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
	info := newInfo()
	info.Defs = map[*ast.Ident]types.Object{}
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
		p, err := s.check(q, q, s.pkgs[q].files, imp, newInfo())
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

// newInfo asks for what check reads besides Uses.
func newInfo() *types.Info {
	return &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Instances: map[*ast.Ident]types.Instance{}}
}

// check type-checks files as package path and records every use of a
// function declared outside home, the package whose code the files are, and
// every object the files read. info comes from newInfo.
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
	for id, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Pkg() != nil && obj.Pkg().Path() != home {
				s.used[obj.Origin().Pos()] = true
			}
			s.read[obj.Origin().Pos()] = true
		case *types.Var:
			// A map or array literal's key reads the variable it names; only
			// a struct literal's, which names a field, writes.
			if key, w := s.writes[id.Pos()]; !w || key && !obj.IsField() {
				s.read[obj.Origin().Pos()] = true
			}
		default:
			s.read[obj.Pos()] = true
		}
	}
	for e, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			s.readFields(m.Key())
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			s.readFields(info.TypeOf(b.X))
		}
	}
	// A type argument for a comparable type parameter may be compared or
	// hashed by the generic code (par.Cache's keys).
	for id, inst := range info.Instances {
		var tps *types.TypeParamList
		switch t := info.Uses[id].Type().(type) {
		case *types.Signature:
			tps = t.TypeParams()
		case *types.Named:
			tps = t.TypeParams()
		}
		for i := 0; i < tps.Len() && i < inst.TypeArgs.Len(); i++ {
			if tps.At(i).Constraint().Underlying().(*types.Interface).IsComparable() {
				s.readFields(inst.TypeArgs.At(i))
			}
		}
	}
	return p, nil
}

// readFields marks every field of t read, nested ones included, when t is a
// struct or an array of them: comparing or hashing a value reads them all.
func (s *exportScan) readFields(t types.Type) {
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			s.read[u.Field(i).Origin().Pos()] = true
			s.readFields(u.Field(i).Type())
		}
	case *types.Array:
		s.readFields(u.Elem())
	}
}

// noteWrites records the identifiers of f that only write what they name: an
// assignment's or increment's operand, and a keyed composite literal's key.
func (s *exportScan) noteWrites(f *ast.File) {
	write := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			s.writes[e.Pos()] = false
		case *ast.SelectorExpr:
			s.writes[e.Sel.Pos()] = false
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					write(l)
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.KeyValueExpr:
			if k, ok := n.Key.(*ast.Ident); ok {
				s.writes[k.Pos()] = true
			}
		}
		return true
	})
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
		read:    map[token.Pos]bool{},
		writes:  map[token.Pos]bool{},
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
			self, err = s.check(path, path, files, s, newInfo())
			if err != nil {
				return nil, err
			}
		}
		if len(p.xtests) > 0 {
			if _, err := s.check(path+"_test", path, p.xtests, s.xtestImporter(path, self), newInfo()); err != nil {
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
			findings = append(findings, s.unusedIn(f, s.defs[path].Defs)...)
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// unusedIn returns the findings among the declarations of f, a production
// file of an internal package whose definitions are defs.
func (s *exportScan) unusedIn(f *ast.File, defs map[*ast.Ident]types.Object) []string {
	var findings []string
	report := func(id *ast.Ident, what, why string) {
		pos := s.fset.Position(id.Pos())
		findings = append(findings, fmt.Sprintf("%s:%d: %s.%s %s", pos.Filename, pos.Line, f.Name.Name, what, why))
	}
	// unread reports an unexported object that nothing reads.
	unread := func(id *ast.Ident) bool {
		return !id.IsExported() && id.Name != "_" && !s.read[defs[id].Pos()]
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn := defs[d.Name].(*types.Func)
			name := d.Name.Name
			if d.Recv != nil {
				if s.implements(fn) {
					continue
				}
				name = receiver(fn).Obj().Name() + "." + name
			}
			switch {
			case d.Name.IsExported() && !s.used[fn.Pos()]:
				report(d.Name, name, "has no caller outside its package")
			case d.Name.Name != "init" && unread(d.Name):
				report(d.Name, name, "is never read")
			}
		case *ast.GenDecl:
			for i, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if unread(spec.Name) {
						report(spec.Name, spec.Name.Name, "is never read")
					}
				case *ast.ValueSpec:
					for j, id := range spec.Names {
						if d.Tok == token.CONST && i == 0 && j == 0 && usesIota(spec) {
							continue // a zero sentinel
						}
						if unread(id) {
							report(id, id.Name, "is never read")
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if unread(id) {
						report(id, "field "+id.Name, "is never read")
					}
				}
			}
		}
		return true
	})
	return findings
}

// usesIota reports whether a constant spec's values mention iota.
func usesIota(spec *ast.ValueSpec) bool {
	found := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
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
			s.noteWrites(f)
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

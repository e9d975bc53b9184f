package spechint_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceCallsGuarded fails on a trace call that an untraced run would pay
// for: a call of obs.(*Trace).Emitf, or of a package's own wrapper around it
// (a function whose last parameter is ...any and whose body calls Emitf), that
// is not inside the then-branch of an if whose condition calls Enabled().
// Emitf returns at once on a nil trace, but its arguments are boxed and any
// fmt.Sprintf among them has run before it is called. The scan covers every
// non-test file of this module with go/parser alone; nested modules (such as
// bench/perf) are their own.
func TestTraceCallsGuarded(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs[filepath.Dir(path)] = append(pkgs[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, files := range pkgs {
		traced := map[string]bool{"Emitf": true}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && variadicAny(fd.Type) && callsAny(fd.Body, traced) {
					traced[fd.Name.Name] = true
				}
			}
		}
		for _, f := range files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok && isCallTo(call, traced) {
					calls++
					if !guarded(stack, call) {
						t.Errorf("%s: trace call %s is not guarded by an Enabled() check",
							fset.Position(call.Pos()), calleeName(call))
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	if calls < 20 {
		t.Errorf("found %d trace calls, want at least 20: the scan is not finding them", calls)
	}
}

// variadicAny reports whether a function's last parameter is ...any.
func variadicAny(ft *ast.FuncType) bool {
	ps := ft.Params.List
	if len(ps) == 0 {
		return false
	}
	el, ok := ps[len(ps)-1].Type.(*ast.Ellipsis)
	if !ok {
		return false
	}
	switch e := el.Elt.(type) {
	case *ast.Ident:
		return e.Name == "any"
	case *ast.InterfaceType:
		return len(e.Methods.List) == 0
	}
	return false
}

// callsAny reports whether body calls a function or method named in names.
func callsAny(body ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isCallTo(call, names) {
			found = true
		}
		return !found
	})
	return found
}

// isCallTo reports whether call is a method call x.Name(...) with Name in names.
func isCallTo(call *ast.CallExpr, names map[string]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && names[sel.Sel.Name]
}

func calleeName(call *ast.CallExpr) string { return call.Fun.(*ast.SelectorExpr).Sel.Name }

// guarded reports whether node, whose ancestors are stack (outermost first),
// lies in the then-branch of an if whose condition calls Enabled().
func guarded(stack []ast.Node, node ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		inThen := node.Pos() >= ifs.Body.Pos() && node.End() <= ifs.Body.End()
		if inThen && callsAny(ifs.Cond, map[string]bool{"Enabled": true}) {
			return true
		}
	}
	return false
}

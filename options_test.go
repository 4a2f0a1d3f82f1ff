package dvod

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryOptionHasACaller keeps the facade free of knobs nobody turns:
// every exported With* option declared in dvod.go must be referenced by at
// least one other Go file of the repository — product code, tests, studies,
// examples, commands or the bench module. An option with no caller is dead
// configuration surface; delete it rather than keep it for a caller that may
// never exist.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "dvod.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	callers := make(map[string]int)
	for _, d := range facade.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if ok && fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(fn.Name.Name, "With") {
			callers[fn.Name.Name] = 0
		}
	}
	if len(callers) == 0 {
		t.Fatal("dvod.go declares no With* options")
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "dvod.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		countOptionRefs(f, filepath.Dir(path) == ".", callers)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for name, n := range callers {
		if n == 0 {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d options in dvod.go have no caller in any other file: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// countOptionRefs adds f's references to the options in callers: bare
// identifiers in the root package's own files, and selectors on the dvod
// import (under whatever name it is imported) everywhere else.
func countOptionRefs(f *ast.File, rootDir bool, callers map[string]int) {
	bare := rootDir && f.Name.Name == "dvod"
	pkg := ""
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "dvod" {
			pkg = "dvod"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	count := func(name string) {
		if _, ok := callers[name]; ok {
			callers[name]++
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && pkg != "" && id.Name == pkg {
				count(x.Sel.Name)
			}
			// Any other selector names a field, a method or another
			// package's member, never a root option.
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			if bare {
				count(x.Name)
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExportsAllowed lists the exported functions and methods that may
// have no caller in non-test Go, keyed "dir.Name" or "dir.Recv.Name", each
// with the reason it stays.
var testOnlyExportsAllowed = map[string]string{
	"internal/events.Sym.MarshalText":             "encoding.TextMarshaler: json and fmt call it, so symbols leave the process as names",
	"internal/stream.FaultError.Unwrap":           "errors.Is and errors.As call it",
	"internal/figures.BatchRef":                   "cross-package fixture: the reference run the stream, serve and scenario tests compare against",
	"internal/figures.GoldenDigestsPath":          "cross-package fixture: locates testdata/golden for the stream and serve tests",
	"internal/workload.Run.RequestedDeviceEpochs": "cross-package fixture: the requested-mark census that tests in four packages compare",
}

// TestNoTestOnlyExports fails for an exported top-level function or method
// in non-test Go (bench/, examples/ and cmd/ included) whose name appears
// nowhere but at its own declaration: product code that only tests call
// belongs in the tests. Matching is by name, so a name shared with any other
// referenced identifier escapes; a selector on a package outside this module
// (strings.Split) does not count as a reference.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	refs := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
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
		foreign := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "repro" || strings.HasPrefix(p, "repro/") {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			foreign[name] = true
		}
		own := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !fd.Name.IsExported() {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					key += id.Name + "."
				}
			}
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && foreign[x.Name] {
					return false
				}
			case *ast.Ident:
				if !own[n] {
					refs[n.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	stale := maps.Clone(testOnlyExportsAllowed)
	for _, d := range decls {
		if refs[d.name] == 0 {
			if _, ok := stale[d.key]; !ok {
				bad = append(bad, d.key)
			}
			delete(stale, d.key)
		}
	}
	sort.Strings(bad)
	for _, k := range bad {
		t.Errorf("%s: exported, but no non-test code refers to it; move it into the tests that call it, or delete it", k)
	}
	for k := range stale {
		t.Errorf("allowlist entry %s names no unreferenced export; remove it", k)
	}
}

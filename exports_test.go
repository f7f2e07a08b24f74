package qcfe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported internal functions and methods that no
// non-test file calls by name but that stay, each with its reason. Keys
// are "pkg.Func" or "pkg.Type.Method".
var exportAllowlist = map[string]string{
	"experiments.Fig1Spread":       "Figure 1's headline spread; the experiments tests check the paper's 2–3x claim through it and BenchmarkFigure1 reports it",
	"experiments.ReductionSummary": "Figure 7's headline reduction ratios; the experiments tests check the paper's claim through it and BenchmarkFigure7 reports it",
	"sqlparse.MustParse":           "test support: tests in seven packages parse literal SQL through it",
}

// TestInternalExportsHaveCallers fails on any exported function or method
// declared under internal/ whose name no non-test Go file in the module
// tree references: such a function is reachable only from its own tests,
// so it is either dead or a second spelling of something that is not.
// The match is by name, so a reference to any function of the same name
// counts and the test can miss a dead export. A method that only the
// standard library calls through an interface (String, ServeHTTP) is
// flagged until some file names it; allowlist it then.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join("benchmark", "out")) {
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
		declared := map[*ast.Ident]bool{}
		dir := filepath.ToSlash(filepath.Dir(path))
		inScope := strings.HasPrefix(dir, "internal/") && dir != "internal/nn/nntest"
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !inScope || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported function found under internal/; is the test running from the module root?")
	}
	var dead []string
	declaredKeys := map[string]bool{}
	for _, d := range decls {
		declaredKeys[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if !used[name] && exportAllowlist[d.key] == "" {
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	for key := range exportAllowlist {
		if !declaredKeys[key] {
			t.Errorf("exportAllowlist names %s, which is not declared under internal/ any more", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or add it to exportAllowlist with the reason it stays", d)
	}
}

// recvType names a method's receiver type without its pointer.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

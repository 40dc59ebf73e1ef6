package weakstab_test

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

// frozenContextPairs are the only exported X/XContext pairs allowed under
// internal/: the benchmark harness calls both halves of each.
var frozenContextPairs = map[string]bool{
	"statespace.Build":          true,
	"markov.Chain.HittingTimes": true,
	"netsim.Restabilization":    true,
}

// TestContextFirstAPI pins the context-first convention: every exploring
// or solving operation has one exported entry point, the one taking ctx.
// An exported function or method X with a sibling XContext on the same
// package and receiver fails the test unless the pair is frozen above.
func TestContextFirstAPI(t *testing.T) {
	// decls maps "pkg.Recv.Name" (or "pkg.Name") to true for every
	// exported function and method declared in non-test files.
	decls := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name := f.Name.Name + "."
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name += receiverName(fn.Recv.List[0].Type) + "."
			}
			decls[name+fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for name := range decls {
		if base, ok := strings.CutSuffix(name, "Context"); ok && decls[base] && !frozenContextPairs[base] {
			twins = append(twins, base+" / "+name)
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("exported context twin: %s — keep only the context-first form", tw)
	}
	for base := range frozenContextPairs {
		if !decls[base] || !decls[base+"Context"] {
			t.Errorf("frozen pair %s/%sContext no longer exists; drop it from frozenContextPairs", base, base)
		}
	}
}

// receiverName returns the type name of a method receiver, without
// pointer or type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

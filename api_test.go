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

// unreferencedAllowed names the exported functions under internal/ that
// no non-test file calls but that stay on purpose, with the reason.
var unreferencedAllowed = map[string]string{
	"statespace.BuildReference":        "test oracle: the seed explorer the engine is checked against",
	"protocol.Validate":                "test oracle: checks an algorithm's declared state domains",
	"scheduler.NewKFairMonitor":        "paper-claim check: pins Algorithm 1's (N-1)-fairness (§3.1)",
	"scheduler.NewLongestWaitingFirst": "paper-claim check: the scheduler the (N-1)-fairness test drives",
	"transformer.NewExplicit":          "test oracle: §4's construction with the coin B in the state, checked bisimilar to New",
	"graph.Complete":                   "test fixture: the complete graph of ijtoken's E12 shape check",
}

// TestNoUnreferencedExports pins that code nothing needs is deleted: every
// exported top-level function under internal/ must be named by at least
// one identifier in a non-test file of the module or of bench/, unless it
// is allowed above. Methods are not checked, since a method may exist only
// to satisfy an interface, which the parser cannot see.
func TestNoUnreferencedExports(t *testing.T) {
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// decls maps "dir.Name" to the declaring ident of every exported
	// top-level function under internal/.
	decls := map[string]*ast.Ident{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, decl := range fl.f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				decls[fl.dir+"."+fn.Name.Name] = fn.Name
			}
		}
	}

	// used records "dir.Name" for each bare identifier (resolved to its
	// own package) and each selector on an imported module package.
	used := map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{}
		for _, imp := range fl.f.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "weakstab/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		// A selector on an import is a use of that package's name; any
		// other selector's operand is walked, and its field or method
		// name is not a use.
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[imports[id.Name]+"."+x.Sel.Name] = true
				} else {
					ast.Inspect(x.X, visit)
				}
				return false
			case *ast.Ident:
				if decls[fl.dir+"."+x.Name] != x {
					used[fl.dir+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	declared := map[string]bool{}
	var dead []string
	for key := range decls {
		name := filepath.Base(key)
		declared[name] = true
		if _, ok := unreferencedAllowed[name]; !ok && !used[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported function %s has no caller outside tests: delete it, or allow it with a reason", d)
	}
	for name := range unreferencedAllowed {
		if !declared[name] {
			t.Errorf("allowed function %s no longer exists; drop it from unreferencedAllowed", name)
		}
	}
}

// goStatementAllowed names the only non-test files under internal/ that
// may start goroutines, with the reason. Every parallel loop runs on
// statespace.ForRanges.
var goStatementAllowed = map[string]string{
	"statespace/parallel.go": "the worker pool: ForRanges, which every parallel loop runs on",
	"service/manager.go":     "long-lived job workers and the drain waiter of Shutdown",
	"obs/manifest.go":        "the heap sampler behind a manifest's peak-heap figure",
	"obs/debug.go":           "the debug HTTP server, which serves until it is closed",
}

// TestOneWorkerPool pins that there is one worker pool: a go statement in
// a non-test file under internal/ fails the test unless its file is
// allowed above.
func TestOneWorkerPool(t *testing.T) {
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "internal"+string(filepath.Separator)))
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			found[rel] = true
			if _, ok := goStatementAllowed[rel]; !ok {
				t.Errorf("%s: go statement outside the worker pool: run the loop on statespace.ForRanges, or allow the file with a reason", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for file := range goStatementAllowed {
		if !found[file] {
			t.Errorf("allowed file %s starts no goroutine; drop it from goStatementAllowed", file)
		}
	}
}

// TestOneSteppingLoop pins that one loop steps every daemon-driven
// execution: outside internal/scheduler, non-test code calls a
// scheduler's four-argument Select exactly once, in internal/sim's
// Execute, and every other stepper runs on that loop.
func TestOneSteppingLoop(t *testing.T) {
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") || filepath.ToSlash(path) == "internal/scheduler" {
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
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 4 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Select" {
					sites = append(sites, fset.Position(call.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || !strings.HasPrefix(filepath.ToSlash(sites[0]), "internal/sim/") {
		t.Errorf("%d Select call sites outside internal/scheduler, want one in internal/sim: step the execution with sim.Execute\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}

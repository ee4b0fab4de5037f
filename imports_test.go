package ringmesh

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneRoadImportGraph keeps the facade the only road from a Config
// to a Result. The commands' front ends, the daemon and the examples
// reach the simulator through package ringmesh alone; the geometry is
// resolved in three places — the facade's resolve, core.NewSystem for
// the harnesses that assemble systems directly, and the BoundFor
// wrapper bench/ compiles against — and nowhere else.
func TestOneRoadImportGraph(t *testing.T) {
	// cmd/ringmesh is held to the stricter rule below.
	facadeOnly := []string{"cmd/ringmeshd/", "internal/serve/", "examples/"}
	resolvers := map[string]bool{"ringmesh.go": true, "internal/core/core.go": true, "internal/fidelity/bounds.go": true}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".bench_build" || path == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range file.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			if imp == "ringmesh/internal/analytic" {
				t.Errorf("%s imports %s, which was folded into internal/fidelity", path, imp)
			}
			for _, dir := range facadeOnly {
				if strings.HasPrefix(path, dir) && (imp == "ringmesh/internal/core" || imp == "ringmesh/internal/network") {
					t.Errorf("%s imports %s; it must go through package ringmesh", path, imp)
				}
			}
			if strings.HasPrefix(path, "cmd/ringmesh/") && strings.HasPrefix(imp, "ringmesh/") {
				t.Errorf("%s imports %s; the command is a client of package ringmesh only", path, imp)
			}
		}
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "internal/network/") || strings.HasPrefix(path, "bench/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if n := strings.Count(string(src), "network.New("); n > 0 && (n > 1 || !resolvers[path]) {
			t.Errorf("%s resolves a geometry itself (%d network.New calls); take the facade's, or a *network.Plan", path, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoStdlibNewerThanGoMod keeps the module buildable at the Go
// version go.mod names: CI installs exactly that toolchain, and a newer
// local one (whose vet does not flag it) builds code that calls
// standard-library API the older one lacks. It lists the package-level
// funcs, types, consts and vars that $GOROOT/api/go1.N.txt adds for
// every N above go.mod's version, and fails on any selector pkg.Name in
// the root module or bench/ that resolves through the file's imports to
// one of them. Struct-field and method lines name older types and are
// skipped. A toolchain no newer than go.mod has no such files, and the
// test skips.
func TestNoStdlibNewerThanGoMod(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	minor := -1
	for _, line := range strings.Split(string(mod), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go 1."); ok {
			v, _, _ = strings.Cut(v, ".")
			if minor, err = strconv.Atoi(v); err != nil {
				t.Fatalf("go.mod: go line %q: %v", line, err)
			}
		}
	}
	if minor < 0 {
		t.Fatal("go.mod names no go version")
	}
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("no go command to locate GOROOT: %v", err)
	}
	// newer maps "import/path.Name" to the release that added it.
	newer := map[string]string{}
	for n := minor + 1; ; n++ {
		release := fmt.Sprintf("go1.%d", n)
		f, err := os.Open(filepath.Join(strings.TrimSpace(string(goroot)), "api", release+".txt"))
		if err != nil {
			break
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			pkg, decl, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "pkg "), ", ")
			if !ok {
				continue
			}
			pkg, _, _ = strings.Cut(pkg, " ") // "syscall (linux-386)"
			kind, rest, _ := strings.Cut(decl, " ")
			name := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '(' || r == '[' || r == ',' })
			if len(name) == 0 {
				continue
			}
			switch kind {
			case "type":
				// "type T struct, F int" and "type I interface, M()"
				// are a field or method of T, not T itself.
				if after := strings.TrimPrefix(rest, name[0]+" "); strings.HasPrefix(after, "struct, ") || strings.HasPrefix(after, "interface, ") {
					continue
				}
			case "func", "const", "var":
			default:
				continue
			}
			newer[pkg+"."+name[0]] = release
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(newer) == 0 {
		t.Skipf("this toolchain lists no API newer than go.mod's go 1.%d", minor)
	}

	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file == ".bench_build" || file == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, spec := range f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(imp)
			if v := strings.TrimPrefix(name, "v"); v != name && v != "" && strings.Trim(v, "0123456789") == "" {
				name = path.Base(path.Dir(imp)) // math/rand/v2 is package rand
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = imp
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Obj is nil for a package name; a local that shadows one
			// resolves to its declaration.
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
				if imp, ok := imports[id.Name]; ok {
					if release, ok := newer[imp+"."+sel.Sel.Name]; ok {
						t.Errorf("%s: %s.%s is %s API, newer than go.mod's go 1.%d",
							fset.Position(sel.Pos()), id.Name, sel.Sel.Name, release, minor)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunShapesAreAliases keeps each run shape declared once: the
// facade names the internal declarations, so no field-by-field
// converter between a public and an internal copy can come back.
func TestRunShapesAreAliases(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "ringmesh.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Workload": false, "RunOptions": false, "Result": false, "ErrorBound": false, "StallDiagnosis": false}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, shape := want[ts.Name.Name]; !shape {
				continue
			}
			if !ts.Assign.IsValid() {
				t.Errorf("ringmesh.go declares %s as a type of its own; alias the internal declaration", ts.Name.Name)
			}
			want[ts.Name.Name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("ringmesh.go does not declare %s", name)
		}
	}
}

// TestFamilyNamesComparedInOnePlace keeps per-family knowledge in one
// place: network.New's switch and the Plan.Net it fills decide what a
// family reads, and internal/fidelity's formulas tell the families
// apart. Anywhere else, comparing against "ring" or "mesh" — in a case
// clause or with == / != — is a second copy of that knowledge, free to
// drift from the first. bench/ is a module of its own and not held to
// it.
func TestFamilyNamesComparedInOnePlace(t *testing.T) {
	isFamily := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, _ := strconv.Unquote(lit.Value)
		return s == "ring" || s == "mesh"
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			switch path {
			case ".git", ".bench_build", "bench", "internal/network", "internal/fidelity":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var operands []ast.Expr
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					operands = []ast.Expr{n.X, n.Y}
				}
			case *ast.CaseClause:
				operands = n.List
			}
			for _, e := range operands {
				if isFamily(e) {
					t.Errorf("%s compares against a network family name; ask the resolved plan (network.Plan.Net) instead", fset.Position(e.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

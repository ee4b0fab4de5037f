package ringmesh

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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

package hetsort

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

	"hetsort/internal/enum"
)

// exportAllowlist names the top-level exported identifiers under
// internal/ that may lack a caller in the module's non-test code
// outside bench/, keyed "<package dir>.<Name>", each with its reason.
var exportAllowlist = map[string]string{
	"internal/check.Recheck":              "hetcheck prints repro commands that call it",
	"internal/cluster.LinkBound":          "bench/ calls it",
	"internal/diskio.PoolStats":           "bench/ calls it",
	"internal/diskio.MemFSPages":          "the page pool's only observable; tests hold it level across sorts",
	"internal/diskio.NewFaultFS":          "test fake",
	"internal/diskio.NewTransientFaultFS": "test fake",
	"internal/sampling.CombineSorted":     "bench/ calls it",
	"internal/sampling.HeteroSpacing":     "bench/ calls it",
	"internal/sampling.RegularSamples":    "bench/ calls it",
}

// TestInternalExportsHaveCallers keeps internal/ free of API that only
// tests reach: every top-level exported func, type, const or var
// declared under internal/ must be named by non-test code somewhere
// besides its own declaration — inside its package by its bare name,
// elsewhere as a selector on an import of that package.  Methods are
// out of scope, since an interface can call them.
func TestInternalExportsHaveCallers(t *testing.T) {
	files, _ := parseSources(t)

	// declared maps "<dir>.<Name>" to the declaring identifier.
	declared := map[string]*ast.Ident{}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			var ids []*ast.Ident
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					ids = append(ids, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = append(ids, s.Name)
					case *ast.ValueSpec:
						ids = append(ids, s.Names...)
					}
				}
			}
			for _, id := range ids {
				if id.IsExported() {
					declared[fl.dir+"."+id.Name] = id
				}
			}
		}
	}

	used := map[string]bool{}
	for _, fl := range files {
		// A selector's right-hand side names a field or method, never a
		// package-level identifier of this file's package.
		sels := map[*ast.Ident]bool{}
		// Local name of each imported package of this module → its dir.
		imports := map[string]string{}
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "hetsort/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						used[dir+"."+n.Sel.Name] = true
					}
				}
				sels[n.Sel] = true
			case *ast.Ident:
				if key := fl.dir + "." + n.Name; !sels[n] && declared[key] != nil && declared[key] != n {
					used[key] = true
				}
			}
			return true
		})
	}

	var unused []string
	for key := range declared {
		if !used[key] && exportAllowlist[key] == "" {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported from internal/ but named by no non-test code; delete it or give it a caller", key)
	}
	for key := range exportAllowlist {
		if declared[key] == nil {
			t.Errorf("allowlist entry %s names no declaration", key)
		}
	}
}

// source is one parsed non-test Go file of the module outside bench/.
type source struct {
	dir string // its directory, slash-separated, relative to the root
	f   *ast.File
}

// parseSources parses every non-test Go file of the module outside
// bench/ and hidden directories.
func parseSources(t *testing.T) ([]source, *token.FileSet) {
	var files []source
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
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
		files = append(files, source{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, fset
}

// TestEnumNamesWrittenOnce: each name in the tables of the six enums a
// Config names appears in the module's non-test code outside bench/ as
// a string literal exactly once, in its table; everything else reaches
// a name through the typed value (String, MarshalText).  The one
// exemption is internal/metrics' Prometheus metric type "histogram",
// which names something else.
func TestEnumNamesWrittenOnce(t *testing.T) {
	seen := map[string][]string{} // name → positions of its literals
	for _, names := range []string{enum.Names[Network](), enum.Names[RunFormation](), enum.Names[Algorithm](),
		enum.Names[PivotStrategy](), enum.Names[Topology](), enum.Names[DiskAccess]()} {
		for _, name := range strings.Split(names, ", ") {
			seen[name] = nil
		}
	}
	files, fset := parseSources(t)
	for _, fl := range files {
		ast.Inspect(fl.f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			v, _ := strconv.Unquote(lit.Value)
			if pos, ok := seen[v]; ok && !(fl.dir == "internal/metrics" && v == "histogram") {
				seen[v] = append(pos, fset.Position(lit.Pos()).String())
			}
			return true
		})
	}
	if len(seen) != 16 {
		t.Errorf("the six tables hold %d distinct names, want 16", len(seen))
	}
	for name, pos := range seen {
		if len(pos) != 1 {
			t.Errorf("%q is written %d times as a string literal, want once: %v", name, len(pos), pos)
		}
	}
}

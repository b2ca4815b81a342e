package designer_test

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

// TestEveryOptionFieldIsRead holds that an option is a value some code
// acts on. Every field of every exported struct named *Options in package
// designer and under internal/ must be read by a selector (x.Field, not as
// the target of a plain assignment) in a non-test file of the module,
// outside a Default* constructor and outside a facade↔internal conversion
// (internal, *FromInternal, *ToInternal), which only copy values. The walk
// is syntactic, so a field counts as read when any selector of its name
// is: a facade field and the internal field it converts to share one name
// and are read once, where the search or the tuner acts on it.
func TestEveryOptionFieldIsRead(t *testing.T) {
	fset := token.NewFileSet()
	type field struct{ owner, name string }
	var fields []field
	read := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own; testdata holds no Go source.
			if name := d.Name(); path != ".." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "../designer" || strings.HasPrefix(dir, "../internal/") {
			for _, ts := range optionStructs(f) {
				for _, fl := range ts.Type.(*ast.StructType).Fields.List {
					for _, n := range fl.Names {
						fields = append(fields, field{dir[len("../"):] + "." + ts.Name.Name, n.Name})
					}
				}
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && copiesOptions(fd.Name.Name) {
				continue
			}
			collectReads(decl, read)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no option structs: the walk is looking in the wrong place")
	}
	var unread []string
	for _, f := range fields {
		if !read[f.name] {
			unread = append(unread, f.owner+"."+f.name)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Fatalf("option fields nothing reads (make each a constant at its default, or act on it):\n  %s",
			strings.Join(unread, "\n  "))
	}
}

// optionStructs lists the file's exported struct types named *Options.
func optionStructs(f *ast.File) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if _, isStruct := ts.Type.(*ast.StructType); isStruct && ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Options") {
				out = append(out, ts)
			}
		}
	}
	return out
}

// copiesOptions names the functions whose reads do not count: defaults and
// the facade's conversions to and from internal types.
func copiesOptions(name string) bool {
	return strings.HasPrefix(name, "Default") || name == "internal" ||
		strings.HasSuffix(name, "FromInternal") || strings.HasSuffix(name, "ToInternal")
}

// collectReads records the name of every selector under n that is read:
// all of them but the direct targets of a plain assignment.
func collectReads(n ast.Node, read map[string]bool) {
	written := map[*ast.SelectorExpr]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN {
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if !written[x] {
				read[x.Sel.Name] = true
			}
		}
		return true
	})
}

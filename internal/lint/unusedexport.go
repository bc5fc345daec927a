package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// stdlibCalled are method names the standard library calls through
// its interfaces (http.Handler, fmt.Stringer, error, io, encoding/json,
// sort.Interface). A name scan of the module cannot see those calls, so
// methods with these names count as used.
var stdlibCalled = map[string]bool{
	"ServeHTTP": true, "String": true, "Error": true, "Unwrap": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// exportedDecls returns the names of f's exported top-level funcs,
// methods, types, consts and vars, minus the methods in stdlibCalled.
func exportedDecls(f *File) []*ast.Ident {
	var names []*ast.Ident
	for _, d := range f.AST.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || !stdlibCalled[d.Name.Name] {
				names = append(names, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
				case *ast.ValueSpec:
					names = append(names, s.Names...)
				}
			}
		}
	}
	exported := names[:0]
	for _, id := range names {
		if token.IsExported(id.Name) {
			exported = append(exported, id)
		}
	}
	return exported
}

// UnusedExport flags exported declarations of the internal packages
// that nothing in the module refers to — code with no caller. The check
// is a name scan, not type resolution: any other identifier with the
// same name counts as a reference, so a method is kept alive by any
// selector of its name. References from tests, commands, examples and
// the benchmark harness all count, as do uses in the declaring file;
// declarations in test files are not checked.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc:  "exported internal/ declarations must be referenced somewhere in the module",
	Run: func(files []*File) []Finding {
		// named counts every identifier occurrence by name, declarations
		// included.
		named := map[string]int{}
		for _, f := range files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					named[id.Name]++
				}
				return true
			})
		}
		var out []Finding
		for _, f := range files {
			if f.Test || !strings.Contains(f.PkgPath+"/", "/internal/") {
				continue
			}
			for _, id := range exportedDecls(f) {
				if named[id.Name] == 1 { // only the declaring identifier
					out = append(out, Finding{
						Pos:      f.Fset.Position(id.Pos()),
						Analyzer: "unusedexport",
						Message:  fmt.Sprintf("exported %s is referenced nowhere in the module: delete it", id.Name),
					})
				}
			}
		}
		return out
	},
}

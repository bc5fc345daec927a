// Package lint implements gcx's repo-specific static checks, run by
// cmd/gcxlint and `make check`. The passes encode architectural
// invariants that ordinary vet cannot know:
//
//   - eventboundary: the raw tokenizer packages (xmltok, jsontok) may
//     only be imported by the designated front-end and splitter
//     packages — everything else must consume the format-neutral event
//     layer (DESIGN.md §8).
//   - ctxpoll: token-pull loops in the engine and shard packages must
//     poll for cancellation, so a disconnecting client aborts a run
//     within one input token (the latency contract of gcxd's drain).
//   - obsnames: metric names registered on the obs registry are
//     gcx_-prefixed snake_case, and the gcxd server packages log through
//     log/slog only (DESIGN.md §11).
//   - hotbytes: the byte-path front ends (xmltok, jsontok) never call
//     ReadByte/UnreadByte — all input flows through the block cursor's
//     window-oriented API, keeping the hot loops vectorized
//     (DESIGN.md §12).
//   - unusedexport: every exported declaration of an internal package
//     is referenced somewhere in the module (tests, commands, examples
//     and perfbench included) — code with no caller goes. It is a name
//     scan: any identifier of the same name counts, and methods the
//     standard library calls through its interfaces (ServeHTTP,
//     String, …) count as used.
//
// The framework is deliberately stdlib-only (go/parser + go/ast): the
// build environment has no module proxy, so golang.org/x/tools is out
// of reach. The Analyzer shape mirrors x/tools/go/analysis closely
// enough that migrating later is mechanical.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Finding is one diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// File is one parsed source file with its package context.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// Path is the file path as given to Load.
	Path string
	// PkgPath is the import path of the file's package, derived from
	// the module path and the directory (test packages share their
	// directory's path).
	PkgPath string
	// Test marks _test.go files; boundary rules exempt them.
	Test bool
}

// Analyzer is one lint pass over the whole file set.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(files []*File) []Finding
}

// All is the registry of passes, in reporting order.
var All = []*Analyzer{EventBoundary, CtxPoll, ObsNames, HotBytes, UnusedExport}

// Lookup resolves a pass by name.
func Lookup(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Load parses every .go file under root, skipping hidden directories
// and testdata fixtures (those contain violations on purpose).
func Load(root string) ([]*File, error) {
	module := modulePath(root)
	fset := token.NewFileSet()
	var files []*File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg = module + "/" + filepath.ToSlash(rel)
		}
		files = append(files, &File{
			Fset:    fset,
			AST:     f,
			Path:    path,
			PkgPath: pkg,
			Test:    strings.HasSuffix(path, "_test.go"),
		})
		return nil
	})
	return files, err
}

// modulePath reads the module line of root's go.mod, defaulting to
// "gcx" (the repo's module) when absent.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "gcx"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "gcx"
}

// Run executes the given passes over root and returns their findings.
func Run(root string, passes []*Analyzer) ([]Finding, error) {
	files, err := Load(root)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, a := range passes {
		all = append(all, a.Run(files)...)
	}
	return all, nil
}

package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestEventBoundaryFixture: the seeded violation fires, the allowed
// package and the test file do not.
func TestEventBoundaryFixture(t *testing.T) {
	findings, err := Run("testdata/eventboundary", []*Analyzer{EventBoundary})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want exactly the seeded violation:\n%v", len(findings), findings)
	}
	f := findings[0]
	if !strings.Contains(f.Pos.Filename, "output/bad.go") {
		t.Errorf("finding in %s, want output/bad.go", f.Pos.Filename)
	}
	if !strings.Contains(f.Message, "gcx/internal/xmltok") || !strings.Contains(f.Message, "internal/event") {
		t.Errorf("message lacks the import and the remedy: %s", f.Message)
	}
}

// TestCtxPollFixture: all three seeded pull-without-poll loops fire
// (two in the engine fixture, one in the join fixture); the polling
// idioms and the out-of-scope package do not.
func TestCtxPollFixture(t *testing.T) {
	findings, err := Run("testdata/ctxpoll", []*Analyzer{CtxPoll})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want the three seeded violations:\n%v", len(findings), findings)
	}
	for _, f := range findings {
		if !strings.Contains(f.Pos.Filename, "engine/loops.go") && !strings.Contains(f.Pos.Filename, "join/loops.go") {
			t.Errorf("finding outside the fixture engine/join packages: %v", f)
		}
	}
}

// TestObsNamesFixture: the seeded violations fire — two malformed
// metric names in the server fixture and one bare "log" import in the
// gcxd command fixture — while the conforming names, the computed name,
// the test file and the slog-using package stay silent.
func TestObsNamesFixture(t *testing.T) {
	findings, err := Run("testdata/obsnames", []*Analyzer{ObsNames})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("findings = %d, want the three seeded violations:\n%v", len(findings), findings)
	}
	var names, logs int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "snake_case"):
			names++
			if !strings.Contains(f.Pos.Filename, "server/bad.go") {
				t.Errorf("name finding outside server/bad.go: %v", f)
			}
		case strings.Contains(f.Message, "log/slog"):
			logs++
			if !strings.Contains(f.Pos.Filename, "cmd/gcxd/bad.go") {
				t.Errorf("log finding outside cmd/gcxd/bad.go: %v", f)
			}
		default:
			t.Errorf("unexpected finding: %v", f)
		}
	}
	if names != 2 || logs != 1 {
		t.Errorf("names = %d, logs = %d, want 2 and 1", names, logs)
	}
}

// TestObsNamesNotVacuous: the pass recognizes the real server's metric
// registrations — otherwise a clean repo run proves nothing.
func TestObsNamesNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if f.Test || !importsPath(f, "gcx/internal/obs") {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && obsCtors[sel.Sel.Name] {
				if _, ok := call.Args[0].(*ast.BasicLit); ok {
					checked++
				}
			}
			return true
		})
	}
	if checked < 20 {
		t.Fatalf("obsnames checked %d literal metric names, want >= 20 (the gcxd registry); the pass has gone vacuous", checked)
	}
}

// TestHotBytesFixture: the two seeded per-byte calls fire; the
// cursor-idiom file, the test file and the out-of-scope package do not.
func TestHotBytesFixture(t *testing.T) {
	findings, err := Run("testdata/hotbytes", []*Analyzer{HotBytes})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want the two seeded violations:\n%v", len(findings), findings)
	}
	var read, unread int
	for _, f := range findings {
		if !strings.Contains(f.Pos.Filename, "xmltok/bad.go") {
			t.Errorf("finding outside xmltok/bad.go: %v", f)
		}
		switch {
		case strings.Contains(f.Message, "UnreadByte"):
			unread++
		case strings.Contains(f.Message, "ReadByte"):
			read++
		}
		if !strings.Contains(f.Message, "block cursor") {
			t.Errorf("message lacks the remedy: %s", f.Message)
		}
	}
	if read != 1 || unread != 1 {
		t.Errorf("read = %d, unread = %d, want 1 and 1", read, unread)
	}
}

// TestHotBytesNotVacuous: the pass actually walks the real tokenizer
// packages, and those packages still use the cursor's sanctioned
// per-byte calls (Byte/Unread) in their slow paths — proving the hot
// packages are in scope and call-expression matching resolves. If this
// count drops to zero the scope map or the packages moved and the pass
// checks nothing.
func TestHotBytesNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	hotFiles, cursorCalls := 0, 0
	for _, f := range files {
		if f.Test || !hotPkgs[f.PkgPath] {
			continue
		}
		hotFiles++
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := calleeName(call); name == "Byte" || name == "Unread" || name == "Window" || name == "SkipPast" {
					cursorCalls++
				}
			}
			return true
		})
	}
	if hotFiles < 6 {
		t.Fatalf("hotbytes scope covers %d files, want >= 6 (xmltok+jsontok); the scope map has gone vacuous", hotFiles)
	}
	if cursorCalls < 20 {
		t.Fatalf("hotbytes packages make %d cursor calls, want >= 20; the byte path has moved and the pass checks nothing", cursorCalls)
	}
}

// TestUnusedExportFixture: the seeded dead func, method and const
// fire; the func named only by a test, the method kept alive by a
// selector, the const read in its own file, the fmt.Stringer method
// and the test file's own export do not.
func TestUnusedExportFixture(t *testing.T) {
	findings, err := Run("testdata/unusedexport", []*Analyzer{UnusedExport})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		if !strings.Contains(f.Pos.Filename, "dead/dead.go") {
			t.Errorf("finding outside dead/dead.go: %v", f)
		}
		got[strings.Fields(f.Message)[1]] = true
	}
	if len(findings) != 3 || !got["Dead"] || !got["Gone"] || !got["Unused"] {
		t.Fatalf("findings = %v, want exactly Dead, Gone and Unused", findings)
	}
}

// TestUnusedExportNotVacuous: the pass sees the real internal packages'
// exported declarations — otherwise a clean repo run proves nothing.
func TestUnusedExportNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if !f.Test && strings.HasPrefix(f.PkgPath, "gcx/internal/") {
			checked += len(exportedDecls(f))
		}
	}
	if checked < 300 {
		t.Fatalf("unusedexport checked %d exported declarations, want >= 300; the scope has gone vacuous", checked)
	}
}

// TestRepoClean: the real repository satisfies every pass — the
// invariant `make check` and CI enforce.
func TestRepoClean(t *testing.T) {
	findings, err := Run("../..", All)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo violation: %v", f)
	}
}

// TestCtxPollNotVacuous: the pass recognizes the repo's real pull loops
// (engine's ensure, shard's splitter producer) — otherwise a clean run
// proves nothing.
func TestCtxPollNotVacuous(t *testing.T) {
	files, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	pullLoops := 0
	for _, f := range files {
		if f.Test || !pollPkgs[f.PkgPath] {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if body := loopBody(n); body != nil && pullsInput(body) {
				pullLoops++
			}
			return true
		})
	}
	if pullLoops == 0 {
		t.Fatal("ctxpoll matched no pull loop in engine/shard; the pass has gone vacuous")
	}
}

// TestLoadPkgPaths: import paths derive from the module path and the
// directory layout.
func TestLoadPkgPaths(t *testing.T) {
	files, err := Load("testdata/ctxpoll")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"gcx/internal/engine": false,
		"gcx/internal/join":   false,
		"gcx/internal/other":  false,
	}
	for _, f := range files {
		if _, ok := want[f.PkgPath]; ok {
			want[f.PkgPath] = true
		} else {
			t.Errorf("unexpected package path %q for %s", f.PkgPath, f.Path)
		}
	}
	for pkg, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", pkg)
		}
	}
}

func TestLookup(t *testing.T) {
	if Lookup("eventboundary") != EventBoundary || Lookup("ctxpoll") != CtxPoll || Lookup("obsnames") != ObsNames || Lookup("hotbytes") != HotBytes || Lookup("unusedexport") != UnusedExport {
		t.Error("Lookup does not resolve registered passes")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup resolved an unknown pass")
	}
}

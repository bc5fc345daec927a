package core

import (
	"io"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"gcx/internal/event"
	"gcx/internal/xmark"
)

// startNames drains src with the alphabet attached and returns the
// StartElement names in order, checking on the way that every one
// carries its name's symbol id, that no other token carries one, and
// that an in-alphabet name is the alphabet's own string.
func startNames(t *testing.T, label string, src event.Source, syms *event.Symbols) []string {
	t.Helper()
	defer src.Release()
	src.SetSymbols(syms)
	var names []string
	for {
		tok, err := src.Next()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tok.Kind != event.StartElement {
			if tok.Sym != 0 {
				t.Fatalf("%s: %s token carries Sym %d", label, tok.Kind, tok.Sym)
			}
			continue
		}
		want := syms.Lookup(tok.Name)
		if tok.Sym != want {
			t.Fatalf("%s: <%s> carries Sym %d, want %d", label, tok.Name, tok.Sym, want)
		}
		// The virtual JSON names come from event's constants instead.
		virtual := tok.Name == event.RootName || tok.Name == event.RecordName
		if want != 0 && !virtual && unsafe.StringData(tok.Name) != unsafe.StringData(syms.Name(want)) {
			t.Fatalf("%s: in-alphabet <%s> is not the alphabet's string", label, tok.Name)
		}
		names = append(names, strings.Clone(tok.Name))
	}
}

// checkSymbolConsistency runs every query of a catalog over doc on the
// bytes path and on a reader path whose reads split names at irregular
// offsets, and compares the two name sequences.
func checkSymbolConsistency(t *testing.T, f Format, doc string, queries map[string]xmark.Query) {
	t.Helper()
	ids := make([]string, 0, len(queries))
	for id := range queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	checked := 0
	for _, id := range ids {
		plan, err := Compile(queries[id].Text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if plan.Automaton == nil {
			continue
		}
		syms := plan.Automaton.Symbols()
		bsrc, err := NewSourceBytes(f, []byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		rsrc, err := NewSource(f, iotest.HalfReader(strings.NewReader(doc)))
		if err != nil {
			t.Fatal(err)
		}
		bytesNames := startNames(t, id+" bytes", bsrc, syms)
		readerNames := startNames(t, id+" reader", rsrc, syms)
		if len(bytesNames) != len(readerNames) {
			t.Fatalf("%s: %d StartElements on the bytes path, %d on the reader path", id, len(bytesNames), len(readerNames))
		}
		for i := range bytesNames {
			if bytesNames[i] != readerNames[i] {
				t.Fatalf("%s: StartElement %d is <%s> on the bytes path, <%s> on the reader path", id, i, bytesNames[i], readerNames[i])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no query of the catalog compiled an automaton")
	}
}

// TestSymbolConsistencyXMark: over the XMark catalog, xmltok tags
// every StartElement with Symbols().Lookup(Name) on both input paths,
// and both paths see the same names.
func TestSymbolConsistencyXMark(t *testing.T) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 96 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkSymbolConsistency(t, FormatXML, doc, xmark.Queries)
}

// TestSymbolConsistencyNDJSON is the same property for jsontok over
// the NDJSON catalog, on a generated bid log followed by records whose
// keys spell alphabet names through escapes (decoded before lookup)
// and the virtual names as plain keys.
func TestSymbolConsistencyNDJSON(t *testing.T) {
	doc, _, err := xmark.GenerateNDJSONString(xmark.Config{TargetBytes: 96 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	doc += `{"bidder":"person0","amount":"1\"0","item":{"name":"x"},"record":{"root":[1,{"seller":"s"}]}}` + "\n" +
		`{"bi\u0064der":"a","réserve":null,"😀":true,"item":[{"\u006eame":"y"},{"na\\me":"z"}]}` + "\n"
	checkSymbolConsistency(t, FormatNDJSON, doc, xmark.NDJSONQueries)
}

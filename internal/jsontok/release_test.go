package jsontok

import (
	"testing"
	"unsafe"

	"gcx/internal/event"
)

// inside reports whether s's bytes lie inside data.
func inside(s string, data []byte) bool {
	if s == "" || len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p < lo+uintptr(len(data))
}

// TestReleaseDropsBorrowedNames: on the []byte path escape-free keys
// outside the alphabet borrow the input, so Release must clear every
// name the pooled tokenizer keeps — stack frames, the pending scalar
// and queued tokens — or a recycled tokenizer pins the previous
// caller's input.
func TestReleaseDropsBorrowedNames(t *testing.T) {
	data := []byte(`{"site":{"people":[{"person":{"name":"A","age":3}}]}}`)
	tz := NewTokenizerBytes(data)
	syms := event.NewSymbols([]string{"people", "record"})
	tz.SetSymbols(syms)
	var borrowed int
	var last event.Token
	for { // stop right after <age>'s text: its EndElement stays queued
		tok, err := tz.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == event.StartElement {
			if tok.Sym != syms.Lookup(tok.Name) {
				t.Fatalf("<%s> carries Sym %d, want %d", tok.Name, tok.Sym, syms.Lookup(tok.Name))
			}
			if inside(tok.Name, data) {
				borrowed++
			}
		}
		if tok.Kind == event.Text && last.Name == "age" {
			break
		}
		last = tok
	}
	if borrowed == 0 {
		t.Fatal("no name was borrowed from the input")
	}
	if len(tz.stack) == 0 || tz.npend == 0 {
		t.Fatal("test must stop with open frames and a queued EndElement")
	}
	stack := tz.stack[:cap(tz.stack)]
	tz.Release()
	for i, f := range stack {
		if f.name != "" {
			t.Fatalf("stack frame %d still holds %q after Release", i, f.name)
		}
	}
	for i, p := range tz.pending {
		if p.Name != "" {
			t.Fatalf("pending token %d still holds %q after Release", i, p.Name)
		}
	}
	if tz.scalarName != "" || tz.syms != nil {
		t.Fatalf("Release kept scalarName %q or the alphabet", tz.scalarName)
	}
}

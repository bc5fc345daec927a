package xmltok

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

// TestReleaseDropsBorrowedNames: on the []byte path out-of-alphabet
// names borrow the input, so Release must clear every name slot the
// pooled tokenizer keeps — or a recycled tokenizer pins the previous
// caller's input.
func TestReleaseDropsBorrowedNames(t *testing.T) {
	data := []byte(`<site><people><person id="p0"><name>A</name></person></people><open>`)
	tz := NewTokenizerBytes(data)
	syms := event.NewSymbols([]string{"people"})
	tz.SetSymbols(syms)
	var borrowed, canonical int
	for i := 0; i < 9; i++ { // stop inside <open>, leaving names on the stack
		tok, err := tz.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind != StartElement {
			continue
		}
		if tok.Sym != syms.Lookup(tok.Name) {
			t.Fatalf("<%s> carries Sym %d, want %d", tok.Name, tok.Sym, syms.Lookup(tok.Name))
		}
		switch {
		case tok.Sym != 0 && tok.Name == syms.Name(tok.Sym) && !inside(tok.Name, data):
			canonical++
		case tok.Sym == 0 && inside(tok.Name, data):
			borrowed++
		default:
			t.Fatalf("<%s> (Sym %d) is neither the canonical string nor borrowed", tok.Name, tok.Sym)
		}
	}
	if borrowed == 0 || canonical == 0 {
		t.Fatalf("want both borrowed and canonical names, got %d and %d", borrowed, canonical)
	}
	if len(tz.stack) == 0 {
		t.Fatal("test must stop with open elements")
	}
	stack := tz.stack[:cap(tz.stack)]
	tz.Release()
	for i, s := range stack {
		if s != "" {
			t.Fatalf("stack slot %d still holds %q after Release", i, s)
		}
	}
	if tz.syms != nil {
		t.Fatal("Release kept the alphabet")
	}
}

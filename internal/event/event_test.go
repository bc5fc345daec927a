package event

import (
	"testing"
	"unsafe"
)

// TestTokenSize pins the Token layout: Sym shares Kind's word, so the
// struct stays at 64 bytes. Every Source.Next returns a token by value,
// and a wider token costs a bigger copy on every event.
func TestTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Token{}) = %d, want 64", got)
	}
	if off := unsafe.Offsetof(Token{}.Sym); off != 4 {
		t.Fatalf("Token.Sym at offset %d, want 4 (beside Kind)", off)
	}
}

func TestSymbols(t *testing.T) {
	names := []string{"person", "item", "a", "", "item", "name", "bidder", "ab"}
	s := NewSymbols(names)
	want := []string{"", "person", "item", "a", "name", "bidder", "ab"}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for id, n := range want {
		if got := s.Name(int32(id)); got != n {
			t.Fatalf("Name(%d) = %q, want %q", id, got, n)
		}
		if id == 0 {
			continue
		}
		if got := s.Lookup(n); got != int32(id) {
			t.Fatalf("Lookup(%q) = %d, want %d", n, got, id)
		}
		if got := s.LookupBytes([]byte(n)); got != int32(id) {
			t.Fatalf("LookupBytes(%q) = %d, want %d", n, got, id)
		}
	}
	for _, n := range []string{"", "b", "pers", "persons", "itex", "Item", "nam\x00", "bidderx", "a very long name"} {
		if got := s.Lookup(n); got != 0 {
			t.Fatalf("Lookup(%q) = %d, want 0", n, got)
		}
		if got := s.LookupBytes([]byte(n)); got != 0 {
			t.Fatalf("LookupBytes(%q) = %d, want 0", n, got)
		}
	}
	var none *Symbols
	if none.Lookup("a") != 0 || none.LookupBytes([]byte("a")) != 0 {
		t.Fatal("a nil alphabet must map every name to 0")
	}
	if empty := NewSymbols(nil); empty.Len() != 1 || empty.Lookup("a") != 0 || empty.LookupBytes(nil) != 0 {
		t.Fatal("an empty alphabet has only the other class")
	}
}

func TestSymbolsLookupAllocs(t *testing.T) {
	s := NewSymbols([]string{"site", "people", "person"})
	b := []byte("person")
	if n := testing.AllocsPerRun(100, func() { s.LookupBytes(b) }); n != 0 {
		t.Fatalf("LookupBytes allocates %.0f times", n)
	}
}

package event

// Symbols is a compiled name alphabet: the element names a query's
// path tests mention, numbered 1..n, with 0 standing for every other
// name (DESIGN.md §7). The path automaton indexes its transitions by
// these ids, and a Source given the alphabet (Source.SetSymbols) tags
// each StartElement with its name's id, so matching an element against
// the query costs no hashing anywhere between the tokenizer and the
// automaton.
//
// Lookup buckets the names by length and compares bytes within the
// bucket; query alphabets are a few dozen names at most, so a bucket
// holds one or two. A Symbols is immutable once built and safe for
// concurrent use.
type Symbols struct {
	// names[id] is the canonical string of symbol id; names[0] is ""
	// (the other class has no name).
	names []string
	// byLen holds the alphabet ordered by name length: the entries for
	// names of length l are byLen[start[l]:start[l+1]]. Each entry
	// carries its name, so a probe reads one contiguous run.
	byLen []symEntry
	start []int32
}

type symEntry struct {
	name string
	id   int32
}

// NewSymbols builds the alphabet of the given names. Ids follow the
// order of first occurrence, starting at 1; duplicates and the empty
// name are dropped.
func NewSymbols(names []string) *Symbols {
	s := &Symbols{names: []string{""}}
	maxLen := 0
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		s.names = append(s.names, n)
		maxLen = max(maxLen, len(n))
	}
	// Counting sort of the names by length.
	s.start = make([]int32, maxLen+2)
	for _, n := range s.names[1:] {
		s.start[len(n)+1]++
	}
	for l := 1; l < len(s.start); l++ {
		s.start[l] += s.start[l-1]
	}
	s.byLen = make([]symEntry, len(s.names)-1)
	fill := append([]int32(nil), s.start...)
	for id, n := range s.names[1:] {
		s.byLen[fill[len(n)]] = symEntry{name: n, id: int32(id + 1)}
		fill[len(n)]++
	}
	return s
}

// Len reports the number of symbol ids, the other class included: ids
// range over [0, Len()).
func (s *Symbols) Len() int { return len(s.names) }

// Name returns the canonical string of symbol id ("" for 0).
func (s *Symbols) Name(id int32) string { return s.names[id] }

// Lookup returns the id of name, or 0 when name is outside the
// alphabet. A nil alphabet maps every name to 0.
func (s *Symbols) Lookup(name string) int32 {
	if s == nil || len(name)+1 >= len(s.start) {
		return 0
	}
	for _, e := range s.byLen[s.start[len(name)]:s.start[len(name)+1]] {
		// The first-byte test settles most misses without a call into
		// the runtime's memequal; names in a bucket are never empty.
		if e.name[0] == name[0] && e.name == name {
			return e.id
		}
	}
	return 0
}

// LookupBytes is Lookup over raw name bytes; it does not allocate.
func (s *Symbols) LookupBytes(b []byte) int32 {
	if s == nil || len(b)+1 >= len(s.start) {
		return 0
	}
	for _, e := range s.byLen[s.start[len(b)]:s.start[len(b)+1]] {
		if e.name[0] == b[0] && e.name == string(b) {
			return e.id
		}
	}
	return 0
}

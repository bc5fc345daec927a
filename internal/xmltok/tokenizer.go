package xmltok

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// Tokenizer reads an XML byte stream and produces Tokens one at a time.
//
// The zero value is not usable; construct with NewTokenizer (io.Reader
// input) or NewTokenizerBytes (zero-copy []byte input). The tokenizer
// validates well-formedness of the element nesting (tag-name balance)
// as it goes, so downstream components may assume that an EndElement
// always matches the innermost open StartElement.
//
// Input flows through a block cursor (internal/cursor, DESIGN.md §12):
// hot loops advance by vectorized window scans rather than per-byte
// reads, and the same scanning code serves both backings. On the
// []byte path, text tokens and attribute values borrow subslices of
// the input instead of allocating; the caller must not mutate the
// input slice while tokens are in use.
type Tokenizer struct {
	cur cursor.Cursor

	// stack of currently open element names.
	stack []string
	// syms is the query's name alphabet (SetSymbols), or nil. Names in
	// it come back as the alphabet's own strings with no lookup beyond a
	// byte compare; sym is the id readName found for the name it just
	// read (0 outside the alphabet).
	syms *event.Symbols
	sym  int32
	// names interns the reader path's out-of-alphabet element and
	// attribute names so that repeated tags in large documents share one
	// string allocation. Only owned copies are stored — never borrowed
	// input bytes — because the map outlives the input across pooled
	// reuses. The []byte path borrows such names from the input instead.
	names map[string]string

	// pending holds a synthesized token (the EndElement of a self-closing
	// tag) to be returned by the next call to Next.
	pending *Token
	peeked  *Token

	// ctx, when non-nil, is checked at every token pull; Next returns
	// ctx.Err() as soon as the context is cancelled, so a streaming run
	// aborts within one token of cancellation. ctxDone caches ctx.Done()
	// so the per-token check is a lock-free channel poll rather than a
	// mutex-guarded ctx.Err() call.
	ctx     context.Context
	ctxDone <-chan struct{}

	// KeepWhitespace controls whether whitespace-only text nodes are
	// reported. Data-oriented processing (the default) drops them; the
	// round-trip property tests keep them.
	KeepWhitespace bool

	count    int64
	depth    int
	started  bool
	done     bool
	released bool

	textBuf []byte

	// SkipSubtree counters and scratch (skip.go).
	bytesSkipped    int64
	tagsSkipped     int64
	subtreesSkipped int64
	skipTag         []byte
	skipNameBuf     []byte
	skipNameLen     []int
}

// tokenizerPool recycles Tokenizers — each carries a 64 KiB cursor
// window, a name-interning map and a text scratch buffer, which dominate
// the per-execution allocation cost of short queries over hot streams.
var tokenizerPool = sync.Pool{
	New: func() any {
		return &Tokenizer{names: make(map[string]string, 64)}
	},
}

// maxInternedNames bounds the interning map carried across pooled
// reuses; beyond it the map is cleared on the next NewTokenizer.
const maxInternedNames = 4096

// NewTokenizer returns a Tokenizer reading from r. Tokenizers come from
// an internal pool; callers that finish with one may hand its buffers
// back via Release.
func NewTokenizer(r io.Reader) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.cur.ResetReader(r, cursor.DefaultSize)
	t.reset()
	return t
}

// NewTokenizerBytes returns a Tokenizer scanning data in place: windows
// are served directly from the slice with no copying, and text tokens /
// attribute values borrow subslices of it. The caller must not mutate
// data until it is done with the tokenizer and every token it produced.
func NewTokenizerBytes(data []byte) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.cur.ResetBytes(data)
	t.reset()
	return t
}

func (t *Tokenizer) reset() {
	t.stack = t.stack[:0]
	t.syms = nil
	t.sym = 0
	if len(t.names) > maxInternedNames {
		clear(t.names)
	}
	t.pending = nil
	t.peeked = nil
	t.ctx = nil
	t.ctxDone = nil
	t.KeepWhitespace = false
	t.count = 0
	t.depth = 0
	t.started = false
	t.done = false
	t.released = false
	t.textBuf = t.textBuf[:0]
	t.bytesSkipped = 0
	t.tagsSkipped = 0
	t.subtreesSkipped = 0
}

// SetContext attaches a cancellation context. Next fails with ctx.Err()
// at the first token pull after cancellation.
func (t *Tokenizer) SetContext(ctx context.Context) {
	t.ctx = ctx
	t.ctxDone = nil
	if ctx != nil {
		t.ctxDone = ctx.Done()
	}
}

// SetSymbols attaches the query's name alphabet (event.Source): every
// StartElement then carries its name's symbol id in Token.Sym. Call it
// before the first Next.
func (t *Tokenizer) SetSymbols(syms *event.Symbols) { t.syms = syms }

// Release returns the tokenizer's buffers to the pool. The tokenizer
// must not be used afterwards; counters read before Release stay valid.
// Release is idempotent.
func (t *Tokenizer) Release() {
	if t.released {
		return
	}
	t.released = true
	t.cur.ResetBytes(nil) // drop the reader / input-slice reference
	// Names on the []byte path borrow the input: a pooled tokenizer
	// must not keep them (or the caller's input) alive.
	clear(t.stack[:cap(t.stack)])
	t.stack = t.stack[:0]
	t.syms = nil
	t.ctx = nil
	t.ctxDone = nil
	t.pending = nil
	t.peeked = nil
	tokenizerPool.Put(t)
}

// TokenCount reports how many tokens have been delivered so far. This is
// the x-axis of the paper's buffer plots ("number of tokens processed").
func (t *Tokenizer) TokenCount() int64 { return t.count }

// Depth reports the current element nesting depth (number of open tags).
func (t *Tokenizer) Depth() int { return t.depth }

// Peek returns the next token without consuming it. The returned token is
// only valid until the following call to Next.
func (t *Tokenizer) Peek() (Token, error) {
	if t.peeked == nil {
		tok, err := t.read()
		if err != nil {
			return Token{}, err
		}
		t.peeked = &tok
	}
	return *t.peeked, nil
}

// Next returns the next token of the stream. At end of input it returns
// io.EOF; if the input ends with unclosed elements, a SyntaxError is
// returned instead. If a context was attached with SetContext and has
// been cancelled, Next returns the context's error without reading.
func (t *Tokenizer) Next() (Token, error) {
	if t.ctxDone != nil {
		select {
		case <-t.ctxDone:
			return Token{}, t.ctx.Err()
		default:
		}
	}
	var tok Token
	var err error
	if t.peeked != nil {
		tok, t.peeked = *t.peeked, nil
	} else {
		tok, err = t.read()
		if err != nil {
			return Token{}, err
		}
	}
	t.count++
	switch tok.Kind {
	case StartElement:
		t.depth++
	case EndElement:
		t.depth--
	}
	return tok, nil
}

// read produces the next raw token, maintaining the open-element stack.
func (t *Tokenizer) read() (Token, error) {
	if t.pending != nil {
		tok := *t.pending
		t.pending = nil
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.stack) == 0 {
			// a self-closing element completed the document element
			t.started = true
		}
		return tok, nil
	}
	if t.done {
		return Token{}, io.EOF
	}
	for {
		err := t.cur.Fill()
		if err == io.EOF {
			if len(t.stack) > 0 {
				return Token{}, t.errf("unexpected end of input inside <%s>", t.stack[len(t.stack)-1])
			}
			t.done = true
			return Token{}, io.EOF
		}
		if err != nil {
			return Token{}, err
		}
		if t.cur.Window()[0] == '<' {
			t.cur.Advance(1)
			tok, skip, err := t.readMarkup()
			if err != nil {
				return Token{}, err
			}
			if skip {
				continue
			}
			return tok, nil
		}
		// Character data up to the next '<'.
		tok, keep, err := t.readText()
		if err != nil {
			return Token{}, err
		}
		if keep {
			return tok, nil
		}
	}
}

// readMarkup parses markup following '<'. skip is true for ignorable
// constructs (comments, PIs, declarations).
func (t *Tokenizer) readMarkup() (tok Token, skip bool, err error) {
	b, err := t.cur.Byte()
	if err != nil {
		return Token{}, false, t.errf("unexpected end of input in markup")
	}
	switch b {
	case '?':
		return Token{}, true, t.skipUntil("?>")
	case '!':
		return t.readBang()
	case '/':
		return t.readEndTag()
	default:
		t.cur.Unread()
		return t.readStartTag()
	}
}

// readBang handles "<!..." constructs: comments, CDATA, DOCTYPE.
func (t *Tokenizer) readBang() (Token, bool, error) {
	b, err := t.cur.Byte()
	if err != nil {
		return Token{}, false, t.errf("unexpected end of input after '<!'")
	}
	switch b {
	case '-':
		if b2, err := t.cur.Byte(); err != nil || b2 != '-' {
			return Token{}, false, t.errf("malformed comment")
		}
		return Token{}, true, t.skipUntil("-->")
	case '[':
		// CDATA section: <![CDATA[ ... ]]>
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			b2, err := t.cur.Byte()
			if err != nil || b2 != open[i] {
				return Token{}, false, t.errf("malformed CDATA section")
			}
		}
		text, err := t.readUntil("]]>")
		if err != nil {
			return Token{}, false, err
		}
		if len(t.stack) == 0 {
			return Token{}, true, nil // CDATA outside root: ignore
		}
		return Token{Kind: Text, Text: text}, false, nil
	default:
		// DOCTYPE or other declaration: skip to matching '>'. Internal
		// subsets with nested brackets are not supported (XMark-class
		// documents do not use them).
		t.cur.Unread()
		return Token{}, true, t.skipUntil(">")
	}
}

func (t *Tokenizer) readEndTag() (Token, bool, error) {
	name, err := t.readName()
	if err != nil {
		return Token{}, false, err
	}
	t.skipSpace()
	b, err := t.cur.Byte()
	if err != nil || b != '>' {
		return Token{}, false, t.errf("malformed end tag </%s", name)
	}
	if len(t.stack) == 0 {
		return Token{}, false, t.errf("unexpected </%s> with no open element", name)
	}
	top := t.stack[len(t.stack)-1]
	if top != name {
		return Token{}, false, t.errf("mismatched </%s>, expected </%s>", name, top)
	}
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.started = true
	}
	return Token{Kind: EndElement, Name: name}, false, nil
}

func (t *Tokenizer) readStartTag() (Token, bool, error) {
	if t.started && len(t.stack) == 0 {
		return Token{}, false, t.errf("content after document element")
	}
	name, err := t.readName()
	if err != nil {
		return Token{}, false, err
	}
	// Capture the element name's symbol before attribute names
	// overwrite t.sym.
	sym := t.sym
	var attrs []Attr
	for {
		t.skipSpace()
		b, err := t.cur.Byte()
		if err != nil {
			return Token{}, false, t.errf("unexpected end of input in <%s>", name)
		}
		switch b {
		case '>':
			t.stack = append(t.stack, name)
			return Token{Kind: StartElement, Sym: sym, Name: name, Attrs: attrs}, false, nil
		case '/':
			b2, err := t.cur.Byte()
			if err != nil || b2 != '>' {
				return Token{}, false, t.errf("malformed self-closing tag <%s", name)
			}
			t.stack = append(t.stack, name)
			t.pending = &Token{Kind: EndElement, Name: name}
			return Token{Kind: StartElement, Sym: sym, Name: name, Attrs: attrs}, false, nil
		default:
			t.cur.Unread()
			a, err := t.readAttr(name)
			if err != nil {
				return Token{}, false, err
			}
			attrs = append(attrs, a)
		}
	}
}

func (t *Tokenizer) readAttr(elem string) (Attr, error) {
	name, err := t.readName()
	if err != nil {
		return Attr{}, t.errf("malformed attribute in <%s>", elem)
	}
	t.skipSpace()
	b, err := t.cur.Byte()
	if err != nil || b != '=' {
		return Attr{}, t.errf("attribute %s in <%s> missing '='", name, elem)
	}
	t.skipSpace()
	q, err := t.cur.Byte()
	if err != nil || (q != '"' && q != '\'') {
		return Attr{}, t.errf("attribute %s in <%s> missing quote", name, elem)
	}
	val, err := t.readAttrValue(name, q)
	if err != nil {
		return Attr{}, err
	}
	return Attr{Name: name, Value: val}, nil
}

// readAttrValue consumes the attribute value through the closing quote
// q. On the []byte path an entity-free value is borrowed from the input
// without allocating. Entity references go through readEntity byte by
// byte on both paths — a reference swallows any quote inside its name
// (e.g. `&a"b;`), so the borrow fast path only fires when no '&'
// precedes the first candidate closing quote.
func (t *Tokenizer) readAttrValue(name string, q byte) (string, error) {
	if t.cur.Fixed() {
		w := t.cur.Window()
		qi := bytes.IndexByte(w, q)
		if qi < 0 {
			// Unterminated value — but an '&' before EOF means the
			// general loop ends inside the entity machinery instead, so
			// only short-circuit entity-free tails (error parity).
			if bytes.IndexByte(w, '&') < 0 {
				t.cur.Advance(len(w))
				return "", t.errf("unterminated attribute value for %s", name)
			}
		} else if bytes.IndexByte(w[:qi], '&') < 0 {
			t.cur.Advance(qi + 1)
			return cursor.Borrow(w[:qi]), nil
		}
	}
	t.textBuf = t.textBuf[:0]
	for {
		if err := t.cur.Fill(); err != nil {
			return "", t.errf("unterminated attribute value for %s", name)
		}
		w := t.cur.Window()
		stop := len(w)
		hitQ := false
		if i := bytes.IndexByte(w, q); i >= 0 {
			stop, hitQ = i, true
		}
		if j := bytes.IndexByte(w[:stop], '&'); j >= 0 {
			t.textBuf = append(t.textBuf, w[:j]...)
			t.cur.Advance(j + 1)
			r, err := t.readEntity()
			if err != nil {
				return "", err
			}
			t.textBuf = append(t.textBuf, r...)
			continue
		}
		t.textBuf = append(t.textBuf, w[:stop]...)
		t.cur.Advance(stop)
		if hitQ {
			t.cur.Advance(1)
			return string(t.textBuf), nil
		}
	}
}

// isWSByte reports whether b is literal XML whitespace.
func isWSByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// readText accumulates character data up to (not including) the next
// '<', scanning whole windows for the structural bytes '<' and '&'.
// keep is false when the text is whitespace-only and KeepWhitespace is
// unset, or when it occurs outside the document element. On the []byte
// path, entity-free text is returned as a borrowed subslice of the
// input with no copy and no allocation; whitespace-only runs are
// dropped before any token construction on both paths.
func (t *Tokenizer) readText() (Token, bool, error) {
	t.textBuf = t.textBuf[:0]
	// borrowed holds the single contiguous text segment of the []byte
	// path (the window spans the whole input there, so entity-free text
	// is always one segment); it migrates into textBuf if an entity
	// forces decoding.
	var borrowed []byte
	canBorrow := t.cur.Fixed()
	ws := true
	for {
		err := t.cur.Fill()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Token{}, false, err
		}
		w := t.cur.Window()
		bound := len(w)
		sawLT := false
		if i := bytes.IndexByte(w, '<'); i >= 0 {
			bound, sawLT = i, true
		}
		if j := bytes.IndexByte(w[:bound], '&'); j >= 0 {
			// Entity reference before the next '<': decode. The reference
			// is consumed byte by byte (shared with the reader path) and
			// may legitimately swallow bytes past bound on malformed
			// names, matching per-byte semantics exactly.
			seg := w[:j]
			if ws {
				ws = allWhitespace(seg)
			}
			if borrowed != nil {
				t.textBuf = append(t.textBuf, borrowed...)
				borrowed = nil
			}
			canBorrow = false
			t.textBuf = append(t.textBuf, seg...)
			t.cur.Advance(j + 1)
			r, err := t.readEntity()
			if err != nil {
				return Token{}, false, err
			}
			if ws && !allWhitespaceString(r) {
				ws = false
			}
			t.textBuf = append(t.textBuf, r...)
			continue
		}
		seg := w[:bound]
		if ws {
			ws = allWhitespace(seg)
		}
		if canBorrow && borrowed == nil && len(t.textBuf) == 0 {
			borrowed = seg
		} else {
			if borrowed != nil {
				t.textBuf = append(t.textBuf, borrowed...)
				borrowed = nil
			}
			t.textBuf = append(t.textBuf, seg...)
		}
		t.cur.Advance(bound)
		if sawLT {
			break
		}
	}
	if len(t.stack) == 0 {
		if ws {
			return Token{}, false, nil
		}
		return Token{}, false, t.errf("character data outside document element")
	}
	if ws && !t.KeepWhitespace {
		return Token{}, false, nil
	}
	if borrowed != nil {
		return Token{Kind: Text, Text: cursor.Borrow(borrowed)}, true, nil
	}
	return Token{Kind: Text, Text: string(t.textBuf)}, true, nil
}

func allWhitespaceString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isWSByte(s[i]) {
			return false
		}
	}
	return true
}

// readEntity resolves an entity reference after '&' has been consumed.
// The reference name is collected into a fixed scratch and resolved
// without intermediate allocations (built-ins and character references
// in the ASCII range are the overwhelmingly common cases).
func (t *Tokenizer) readEntity() (string, error) {
	var name [13]byte
	n := 0
	for {
		b, err := t.cur.Byte()
		if err != nil {
			return "", t.errf("unterminated entity reference")
		}
		if b == ';' {
			break
		}
		if n >= 12 {
			return "", t.errf("entity reference too long")
		}
		name[n] = b
		n++
	}
	r, ok := resolveEntityBytes(name[:n])
	if !ok {
		// Copy the name out of the scratch for the error message; the
		// conversion keeps the array itself off the heap on the hot
		// (error-free) path.
		s := string(name[:n])
		if n > 0 && name[0] == '#' {
			return "", t.errf("malformed character reference &%s;", s)
		}
		return "", t.errf("unknown entity &%s;", s)
	}
	return r, nil
}

// resolveEntity resolves the reference name between '&' and ';' — the
// five XML built-ins or a numeric character reference. Shared with the
// Splitter so both agree on what resolves (FuzzSplitter parity).
func resolveEntity(s string) (string, bool) {
	return resolveEntityBytes([]byte(s))
}

// resolveEntityBytes is resolveEntity over a byte scratch. The switch
// comparison and the manual digit parse do not allocate, so resolving
// a built-in entity costs no heap traffic at all.
func resolveEntityBytes(s []byte) (string, bool) {
	switch string(s) { // compiled to comparisons; no allocation
	case "lt":
		return "<", true
	case "gt":
		return ">", true
	case "amp":
		return "&", true
	case "apos":
		return "'", true
	case "quot":
		return `"`, true
	}
	if len(s) > 1 && s[0] == '#' {
		digits := s[1:]
		base := uint64(10)
		if digits[0] == 'x' || digits[0] == 'X' {
			base, digits = 16, digits[1:]
		}
		if len(digits) == 0 {
			return "", false
		}
		// Manual parse, matching strconv.ParseUint(digits, base, 32):
		// no sign, no underscores, no 0x prefix, range-checked at 32
		// bits. The name length cap (12 bytes) rules out uint64
		// overflow before the range check fires.
		var n uint64
		for _, c := range digits {
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				return "", false
			}
			if d >= base {
				return "", false
			}
			n = n*base + d
		}
		if n > 1<<32-1 {
			return "", false
		}
		return string(rune(n)), true
	}
	return "", false
}

// readName reads an XML name (simplified NCName: letters, digits, '.',
// '-', '_', ':') and records its symbol id in t.sym. The common case —
// the whole name inside the current window — is a single bounded scan
// plus an alphabet byte compare and no allocation; only names
// straddling a reader-path refill boundary take the accumulating slow
// path.
func (t *Tokenizer) readName() (string, error) {
	if err := t.cur.Fill(); err != nil {
		return "", t.errf("expected name")
	}
	w := t.cur.Window()
	i := 0
	for i < len(w) && isNameByte(w[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", t.errf("expected name")
	}
	if i < len(w) || t.cur.Fixed() {
		t.cur.Advance(i)
		return t.name(w[:i]), nil
	}
	// Name runs to the window edge on the reader path: accumulate.
	t.textBuf = append(t.textBuf[:0], w[:i]...)
	t.cur.Advance(i)
	for {
		b, err := t.cur.Byte()
		if err != nil {
			break
		}
		if !isNameByte(b, false) {
			t.cur.Unread()
			break
		}
		t.textBuf = append(t.textBuf, b)
	}
	return t.name(t.textBuf), nil
}

// name returns the string for name bytes b and sets t.sym: the
// alphabet's canonical string for an in-alphabet name; otherwise a
// borrowed subslice of the input on the []byte path (b is then always
// input bytes, never scratch), or the interned copy on the reader path.
func (t *Tokenizer) name(b []byte) string {
	if t.sym = t.syms.LookupBytes(b); t.sym != 0 {
		return t.syms.Name(t.sym)
	}
	if t.cur.Fixed() {
		return cursor.Borrow(b)
	}
	return t.intern(b)
}

// intern returns the canonical string for a name. Hits cost a map
// lookup with no allocation (the compiler elides the string conversion
// in the lookup); misses store an owned copy, never borrowed input.
func (t *Tokenizer) intern(b []byte) string {
	if s, ok := t.names[string(b)]; ok {
		return s
	}
	s := string(b)
	t.names[s] = s
	return s
}

// nameStartByte/namePartByte classify XML name bytes by table lookup:
// the raw-skip fast loop touches every name byte, and a 256-entry table
// beats the branchy range switch there.
var nameStartByte, namePartByte [256]bool

func init() {
	for i := 0; i < 256; i++ {
		b := byte(i)
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
			nameStartByte[i], namePartByte[i] = true, true
		case b >= '0' && b <= '9', b == '-', b == '.':
			namePartByte[i] = true
		case b >= 0x80: // permit multi-byte UTF-8 names without decoding
			nameStartByte[i], namePartByte[i] = true, true
		}
	}
}

func isNameByte(b byte, first bool) bool {
	if first {
		return nameStartByte[b]
	}
	return namePartByte[b]
}

func (t *Tokenizer) skipSpace() {
	for {
		if err := t.cur.Fill(); err != nil {
			return
		}
		w := t.cur.Window()
		i := 0
		for i < len(w) && isWSByte(w[i]) {
			i++
		}
		t.cur.Advance(i)
		if i < len(w) {
			return
		}
	}
}

// skipUntil discards input through the first occurrence of pat.
func (t *Tokenizer) skipUntil(pat string) error {
	return t.scanUntil(pat, nil)
}

// readUntil collects input through the first occurrence of pat, excluding
// the pattern itself. On the []byte path the content is borrowed.
func (t *Tokenizer) readUntil(pat string) (string, error) {
	if t.cur.Fixed() {
		w := t.cur.Window()
		i := indexPat(w, pat)
		if i < 0 {
			t.cur.Advance(len(w))
			return "", t.errf("unexpected end of input looking for %q", pat)
		}
		t.cur.Advance(i + len(pat))
		return cursor.Borrow(w[:i]), nil
	}
	t.textBuf = t.textBuf[:0]
	if err := t.scanUntil(pat, &t.textBuf); err != nil {
		return "", err
	}
	return string(t.textBuf), nil
}

// scanUntil consumes input through the first occurrence of pat,
// appending the content (pattern excluded) to *collect when non-nil.
// The []byte path is a single vectorized bytes.Index; the reader path
// runs KMP with bytes.IndexByte jumps between candidate positions.
func (t *Tokenizer) scanUntil(pat string, collect *[]byte) error {
	if t.cur.Fixed() {
		w := t.cur.Window()
		i := indexPat(w, pat)
		if i < 0 {
			t.cur.Advance(len(w))
			return t.errf("unexpected end of input looking for %q", pat)
		}
		if collect != nil {
			*collect = append(*collect, w[:i]...)
		}
		t.cur.Advance(i + len(pat))
		return nil
	}
	matched := 0
	for matched < len(pat) {
		if matched == 0 {
			// No partial match pending: jump to the next candidate first
			// byte; everything before it is definitely content.
			if err := t.cur.Fill(); err != nil {
				return t.errf("unexpected end of input looking for %q", pat)
			}
			w := t.cur.Window()
			i := bytes.IndexByte(w, pat[0])
			if i < 0 {
				if collect != nil {
					*collect = append(*collect, w...)
				}
				t.cur.Advance(len(w))
				continue
			}
			if collect != nil {
				*collect = append(*collect, w[:i]...)
			}
			t.cur.Advance(i + 1)
			matched = 1
			continue
		}
		b, err := t.cur.Byte()
		if err != nil {
			return t.errf("unexpected end of input looking for %q", pat)
		}
		prev := matched
		matched = patAdvance(pat, matched, b)
		if collect != nil {
			// The unflushed window held pat[:prev]; with b it is prev+1
			// bytes, of which the oldest prev+1-matched can no longer be
			// part of a match and belong to the content.
			if flush := prev + 1 - matched; flush > 0 {
				if flush <= prev {
					*collect = append(*collect, pat[:flush]...)
				} else {
					*collect = append(*collect, pat[:prev]...)
					*collect = append(*collect, b)
				}
			}
		}
	}
	return nil
}

// indexPat returns the index of the first occurrence of pat in w, or
// -1. It is bytes.Index without the string→[]byte conversion (which
// would allocate): vectorized IndexByte jumps between candidate
// positions, with an allocation-free comparison at each.
func indexPat(w []byte, pat string) int {
	for off := 0; ; {
		i := bytes.IndexByte(w[off:], pat[0])
		if i < 0 {
			return -1
		}
		p := off + i
		if p+len(pat) > len(w) {
			return -1
		}
		if string(w[p:p+len(pat)]) == pat {
			return p
		}
		off = p + 1
	}
}

// patAdvance is one step of Knuth-Morris-Pratt matching: given that
// pat[:matched] is the longest pattern prefix ending at the previous
// byte, it returns the longest prefix ending at b. A plain "reset to 0
// or 1 on mismatch" loses state on repeated-prefix patterns — "]]]>"
// contains "]]>" but never matches without the fallback.
func patAdvance(pat string, matched int, b byte) int {
	for matched > 0 && b != pat[matched] {
		matched = patOverlap(pat, matched)
	}
	if b == pat[matched] {
		return matched + 1
	}
	return 0
}

// patOverlap returns the length of the longest proper prefix of
// pat[:m] that is also its suffix (the KMP failure function; fine to
// recompute per mismatch for the tiny patterns used here).
func patOverlap(pat string, m int) int {
	for k := m - 1; k > 0; k-- {
		if pat[:k] == pat[m-k:m] {
			return k
		}
	}
	return 0
}

func (t *Tokenizer) errf(format string, args ...any) error {
	if ioErr := t.cur.IOErr(); ioErr != nil {
		return fmt.Errorf("xmltok: read error at byte %d: %w", t.cur.Offset(), ioErr)
	}
	return &SyntaxError{Offset: t.cur.Offset(), Msg: fmt.Sprintf(format, args...)}
}

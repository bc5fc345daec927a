// Package jsontok is the JSON/NDJSON front end of the engine: a
// streaming tokenizer that presents JSON values as the format-neutral
// tree events of internal/event (Tokenizer implements event.Source), a
// serializer that renders result events back as JSON lines (Serializer
// implements event.Sink), and an NDJSON line splitter for sharded
// execution.
//
// The tree mapping (DESIGN.md §8) makes the existing XPath subset,
// projection automaton and subtree skipping apply unchanged:
//
//   - the stream is one virtual element named event.RootName ("root");
//   - every top-level JSON value — one line of NDJSON — is an element
//     named event.RecordName ("record");
//   - an object member k:v becomes an element named k containing the
//     mapping of v;
//   - an array becomes repeated siblings: each item is mapped under the
//     array's own element name (the object key it was the value of, or
//     "record" at the top level), so {"a":[1,2]} ≡ <a>1</a><a>2</a> and
//     nested arrays flatten;
//   - scalars become text content: strings unescaped, numbers and
//     true/false verbatim, null an empty element.
//
// Like the XML tokenizer, the Tokenizer works strictly one event at a
// time, interns object keys so repeated field names in large streams
// share one string allocation, and supports byte-level SkipSubtree:
// when the projection automaton proves a value irrelevant, its bytes
// are raw-scanned to the matching close brace without string decoding,
// number parsing or event construction. Scalar values are parsed
// lazily — the StartElement is delivered before the scalar's bytes are
// consumed — so skipping a scalar raw-scans its bytes too instead of
// decoding them first and discarding the result.
//
// Input flows through the shared block cursor (internal/cursor,
// DESIGN.md §12): both io.Reader and []byte inputs run the same
// window-oriented scanning code, and on the []byte path escape-free
// strings and number literals borrow subslices of the input instead of
// allocating.
package jsontok

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"gcx/internal/cursor"
	"gcx/internal/event"
)

// SyntaxError describes malformed JSON input with its byte offset.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsontok: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// frame kinds of the container stack.
const (
	frameStream uint8 = iota // the virtual root: a sequence of records
	frameObject              // inside { }: the element named frame.name is open
	frameArray               // inside [ ]: items repeat under frame.name, no element open
)

type frame struct {
	kind uint8
	// sym is name's id in the tokenizer's alphabet (0 outside it).
	sym  int32
	name string
	// needSep is set once a member value has been consumed, so the next
	// parse position expects ',' or the closing bracket.
	needSep bool
}

// Tokenizer reads a JSON or NDJSON byte stream and produces events one
// at a time. The zero value is not usable; construct with NewTokenizer
// or NewTokenizerBytes.
type Tokenizer struct {
	cur cursor.Cursor

	stack   []frame
	pending [2]event.Token // queued trailing events of a scalar value
	npend   int
	ppend   int

	// A scalar value's StartElement has been delivered but its bytes are
	// still unread: the next Next parses them (text + end), and a
	// SkipSubtree instead raw-scans them without decoding.
	scalarPending bool
	scalarName    string

	// syms is the query's name alphabet (SetSymbols), or nil. Keys in it
	// come back as the alphabet's own strings; keySym is the id of the
	// key readString read last, and rootSym/recordSym are the ids of the
	// two virtual names, resolved once in SetSymbols.
	syms      *event.Symbols
	keySym    int32
	rootSym   int32
	recordSym int32

	// names interns the reader path's out-of-alphabet object keys (→
	// element names), and escaped keys on either path; repeated fields
	// in large streams share one string allocation. Only owned copies
	// are stored — never borrowed input bytes — because the map outlives
	// the input across pooled reuses. The []byte path borrows escape-free
	// keys from the input instead.
	names map[string]string

	ctx     context.Context
	ctxDone <-chan struct{}

	count    int64
	started  bool
	done     bool
	released bool

	textBuf []byte

	bytesSkipped    int64
	tagsSkipped     int64
	subtreesSkipped int64
}

// tokenizerPool recycles Tokenizers — each carries a 64 KiB cursor
// window, a key-interning map and a text scratch buffer.
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
// are served directly from the slice, and escape-free strings / number
// literals borrow subslices of it. The caller must not mutate data
// until it is done with the tokenizer and every event it produced.
func NewTokenizerBytes(data []byte) *Tokenizer {
	t := tokenizerPool.Get().(*Tokenizer)
	t.cur.ResetBytes(data)
	t.reset()
	return t
}

func (t *Tokenizer) reset() {
	t.stack = t.stack[:0]
	t.npend = 0
	t.ppend = 0
	t.scalarPending = false
	t.scalarName = ""
	t.SetSymbols(nil)
	if len(t.names) > maxInternedNames {
		clear(t.names)
	}
	t.ctx = nil
	t.ctxDone = nil
	t.count = 0
	t.started = false
	t.done = false
	t.released = false
	t.textBuf = t.textBuf[:0]
	t.bytesSkipped = 0
	t.tagsSkipped = 0
	t.subtreesSkipped = 0
}

// SetContext attaches a cancellation context. Next fails with ctx.Err()
// at the first event pull after cancellation.
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
func (t *Tokenizer) SetSymbols(syms *event.Symbols) {
	t.syms = syms
	t.rootSym = syms.Lookup(event.RootName)
	t.recordSym = syms.Lookup(event.RecordName)
}

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
	t.pending = [2]event.Token{}
	t.npend, t.ppend = 0, 0
	t.scalarName = ""
	t.SetSymbols(nil)
	t.ctx = nil
	t.ctxDone = nil
	tokenizerPool.Put(t)
}

// TokenCount reports how many events have been delivered so far.
func (t *Tokenizer) TokenCount() int64 { return t.count }

// BytesSkipped reports how many input bytes SkipSubtree fast-forwarded
// past without tokenization.
func (t *Tokenizer) BytesSkipped() int64 { return t.bytesSkipped }

// TagsSkipped reports a lower bound on the elements inside skipped
// values (object members counted via their key separators).
func (t *Tokenizer) TagsSkipped() int64 { return t.tagsSkipped }

// SubtreesSkipped reports how many SkipSubtree fast-forwards were taken.
func (t *Tokenizer) SubtreesSkipped() int64 { return t.subtreesSkipped }

// SkipStats bundles the skip counters as the event.Source contract
// reports them.
func (t *Tokenizer) SkipStats() event.SkipStats {
	return event.SkipStats{
		BytesSkipped:    t.bytesSkipped,
		TagsSkipped:     t.tagsSkipped,
		SubtreesSkipped: t.subtreesSkipped,
	}
}

func (t *Tokenizer) emit(tok event.Token) (event.Token, error) {
	t.count++
	return tok, nil
}

func (t *Tokenizer) queue(tok event.Token) {
	t.pending[t.npend] = tok
	t.npend++
}

// Next returns the next event of the stream, io.EOF at the end.
func (t *Tokenizer) Next() (event.Token, error) {
	if t.ctxDone != nil {
		select {
		case <-t.ctxDone:
			return event.Token{}, t.ctx.Err()
		default:
		}
	}
	if t.ppend < t.npend {
		tok := t.pending[t.ppend]
		t.ppend++
		if t.ppend == t.npend {
			t.ppend, t.npend = 0, 0
		}
		return t.emit(tok)
	}
	if t.scalarPending {
		t.scalarPending = false
		return t.parseScalar(t.scalarName)
	}
	if t.done {
		if ioErr := t.cur.IOErr(); ioErr != nil {
			return event.Token{}, ioErr
		}
		return event.Token{}, io.EOF
	}
	if !t.started {
		t.started = true
		t.stack = append(t.stack, frame{kind: frameStream, sym: t.rootSym, name: event.RootName})
		return t.emit(event.Token{Kind: event.StartElement, Sym: t.rootSym, Name: event.RootName})
	}
	for {
		top := &t.stack[len(t.stack)-1]
		switch top.kind {
		case frameStream:
			_, err := t.skipSpace()
			if err == io.EOF {
				t.done = true
				t.stack = t.stack[:len(t.stack)-1]
				return t.emit(event.Token{Kind: event.EndElement, Name: event.RootName})
			}
			if err != nil {
				return event.Token{}, err
			}
			ok, err := t.beginValue(event.RecordName, t.recordSym)
			if err != nil {
				return event.Token{}, err
			}
			if !ok {
				continue
			}
			return t.start(event.RecordName, t.recordSym)
		case frameObject:
			b, err := t.skipSpace()
			if err != nil {
				return event.Token{}, t.unexpectedEOF(err, "inside object")
			}
			if b == '}' {
				t.cur.Advance(1)
				name := top.name
				t.stack = t.stack[:len(t.stack)-1]
				return t.emit(event.Token{Kind: event.EndElement, Name: name})
			}
			if top.needSep {
				if b != ',' {
					return event.Token{}, t.errf("expected ',' or '}' in object, got %q", b)
				}
				t.cur.Advance(1)
				top.needSep = false
				continue
			}
			if b != '"' {
				return event.Token{}, t.errf("expected object key string, got %q", b)
			}
			key, err := t.readString(true)
			if err != nil {
				return event.Token{}, err
			}
			keySym := t.keySym
			b, err = t.skipSpace()
			if err != nil || b != ':' {
				return event.Token{}, t.unexpectedSep(err, b, "':' after object key")
			}
			t.cur.Advance(1)
			ok, err := t.beginValue(key, keySym)
			if err != nil {
				return event.Token{}, err
			}
			if !ok {
				continue
			}
			return t.start(key, keySym)
		case frameArray:
			b, err := t.skipSpace()
			if err != nil {
				return event.Token{}, t.unexpectedEOF(err, "inside array")
			}
			if b == ']' {
				t.cur.Advance(1)
				t.stack = t.stack[:len(t.stack)-1]
				continue // arrays emit no event of their own
			}
			if top.needSep {
				if b != ',' {
					return event.Token{}, t.errf("expected ',' or ']' in array, got %q", b)
				}
				t.cur.Advance(1)
				top.needSep = false
				continue
			}
			ok, err := t.beginValue(top.name, top.sym)
			if err != nil {
				return event.Token{}, err
			}
			if !ok {
				continue
			}
			return t.start(top.name, top.sym)
		default:
			return event.Token{}, t.errf("corrupt tokenizer state")
		}
	}
}

// beginValue parses the start of one JSON value that maps to elements
// named name, whose symbol id is sym. The enclosing frame's separator
// expectation is armed here, before any child frame is pushed. ok=true
// means the value opens an element: the caller returns its
// StartElement (start), built in place rather than copied out of here.
// ok=false (with nil error) means an array frame was pushed and the
// caller's loop must continue —
// arrays emit no event of their own, and iterating instead of recursing
// keeps deeply nested array input from growing the goroutine stack.
//
// Scalar values only have their leading byte classified here; the bytes
// stay in the cursor (scalarPending) so that a SkipSubtree right after
// the StartElement can raw-scan them. A malformed scalar therefore
// surfaces its syntax error on the Next after the StartElement, not
// before it.
func (t *Tokenizer) beginValue(name string, sym int32) (bool, error) {
	t.stack[len(t.stack)-1].needSep = true
	b, err := t.skipSpace()
	if err != nil {
		return false, t.unexpectedEOF(err, "expecting value")
	}
	switch {
	case b == '{':
		t.cur.Advance(1)
		t.stack = append(t.stack, frame{kind: frameObject, sym: sym, name: name})
		return true, nil
	case b == '[':
		t.cur.Advance(1)
		t.stack = append(t.stack, frame{kind: frameArray, sym: sym, name: name})
		return false, nil
	case b == '"' || b == 't' || b == 'f' || b == 'n' || b == '-' || (b >= '0' && b <= '9'):
		t.scalarPending = true
		t.scalarName = name
		return true, nil
	default:
		return false, t.errf("unexpected %q at start of value", b)
	}
}

// start delivers the StartElement of the value beginValue just opened.
func (t *Tokenizer) start(name string, sym int32) (event.Token, error) {
	t.count++
	return event.Token{Kind: event.StartElement, Sym: sym, Name: name}, nil
}

// parseScalar consumes the deferred scalar value and returns its first
// trailing event: the text (end queued) or, for empty values, the end
// itself.
func (t *Tokenizer) parseScalar(name string) (event.Token, error) {
	b, err := t.skipSpace()
	if err != nil {
		return event.Token{}, t.unexpectedEOF(err, "expecting value")
	}
	var text string
	present := true
	switch {
	case b == '"':
		s, err := t.readString(false)
		if err != nil {
			return event.Token{}, err
		}
		text, present = s, s != ""
	case b == 't':
		if err := t.literal("true"); err != nil {
			return event.Token{}, err
		}
		text = "true"
	case b == 'f':
		if err := t.literal("false"); err != nil {
			return event.Token{}, err
		}
		text = "false"
	case b == 'n':
		if err := t.literal("null"); err != nil {
			return event.Token{}, err
		}
		present = false
	default: // '-' or digit; beginValue vetted the leading byte
		s, err := t.readNumber()
		if err != nil {
			return event.Token{}, err
		}
		text = s
	}
	if present {
		t.queue(event.Token{Kind: event.EndElement, Name: name})
		return t.emit(event.Token{Kind: event.Text, Text: text})
	}
	return t.emit(event.Token{Kind: event.EndElement, Name: name})
}

// SkipSubtree fast-forwards past the value of the StartElement most
// recently returned by Next, without producing its events. Container
// and scalar values alike are raw-scanned at byte level — no string
// decoding, number parsing, key interning or event construction happens
// for the skipped region.
func (t *Tokenizer) SkipSubtree() error {
	t.subtreesSkipped++
	if t.scalarPending {
		// Scalar value: its bytes are still in the cursor; raw-scan
		// them without decoding.
		t.scalarPending = false
		t.tagsSkipped++ // the unproduced EndElement
		return t.skipScalar()
	}
	if len(t.stack) == 0 {
		return t.errf("SkipSubtree with no open element")
	}
	top := t.stack[len(t.stack)-1]
	switch top.kind {
	case frameObject:
		// The object's '{' is consumed; scan to the matching '}'.
		if err := t.rawSkip(1); err != nil {
			return err
		}
		t.stack = t.stack[:len(t.stack)-1]
		return nil
	case frameStream:
		// Skipping the virtual root: consume the remaining input.
		if err := t.rawSkipToEOF(); err != nil {
			return err
		}
		t.stack = t.stack[:0]
		t.done = true
		return nil
	default:
		return t.errf("SkipSubtree not positioned on a start element")
	}
}

// stringEnd is the string kernel of the skip paths: it finds the quote
// that closes a JSON string in w, the string's bytes from some point
// after its opening quote. esc reports that the byte before w[0] was a
// backslash still waiting for the byte it escapes (a window boundary
// split the escape). The scan jumps from quote to quote with
// bytes.IndexByte; a quote closes the string when the run of
// backslashes before it has even length. It returns the quote's index,
// or -1 when w ends first, together with the escape state to carry
// into the next window.
func stringEnd(w []byte, esc bool) (int, bool) {
	from := 0
	if esc {
		if len(w) == 0 {
			return -1, true
		}
		from = 1 // w[0] is the escaped byte
	}
	for {
		// Invariant: w[from] is not escaped.
		j := bytes.IndexByte(w[from:], '"')
		if j < 0 {
			return -1, backslashRun(w, from, len(w))%2 == 1
		}
		q := from + j
		if backslashRun(w, from, q)%2 == 0 {
			return q, false
		}
		from = q + 1
	}
}

// backslashRun counts the backslashes immediately before w[end], not
// looking before w[from].
func backslashRun(w []byte, from, end int) int {
	k := end
	for k > from && w[k-1] == '\\' {
		k--
	}
	return end - k
}

// rawSkip consumes bytes until the container nesting depth returns to
// zero from the given starting depth, honoring strings and escapes. It
// scans the cursor window in place and allocates nothing: structure
// outside strings is read byte by byte, and each string is crossed in
// one stringEnd jump.
func (t *Tokenizer) rawSkip(depth int) error {
	inStr := false
	esc := false
	for {
		if err := t.cur.Fill(); err != nil {
			return t.unexpectedEOF(err, "inside skipped value")
		}
		buf := t.cur.Window()
		i := 0
		if inStr {
			// A string left open by the previous window.
			q, e := stringEnd(buf, esc)
			if q < 0 {
				esc = e
				i = len(buf)
			} else {
				inStr = false
				i = q + 1
			}
		}
	scan:
		for ; i < len(buf); i++ {
			switch buf[i] {
			case '"':
				q, e := stringEnd(buf[i+1:], false)
				if q < 0 {
					inStr, esc = true, e
					break scan
				}
				i += q + 1 // the closing quote
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					t.cur.Advance(i + 1)
					t.bytesSkipped += int64(i + 1)
					return nil
				}
			case ':':
				// Each object member inside the skipped region would
				// have produced one element — a lower bound mirroring
				// the XML tokenizer's tags-skipped counter.
				t.tagsSkipped++
			}
		}
		t.cur.Advance(len(buf))
		t.bytesSkipped += int64(len(buf))
	}
}

// skipScalar raw-scans one scalar value: a string is consumed to its
// closing quote honoring escapes; a number or keyword runs to the next
// structural delimiter. No decoding or validation happens — like
// rawSkip, the scan accepts a superset of what full tokenization would.
func (t *Tokenizer) skipScalar() error {
	b, err := t.skipSpace()
	if err != nil {
		return t.unexpectedEOF(err, "expecting skipped value")
	}
	if b == '"' {
		t.cur.Advance(1)
		t.bytesSkipped++
		esc := false
		for {
			if err := t.cur.Fill(); err != nil {
				return t.unexpectedEOF(err, "inside skipped string")
			}
			w := t.cur.Window()
			q, e := stringEnd(w, esc)
			if q >= 0 {
				t.cur.Advance(q + 1)
				t.bytesSkipped += int64(q + 1)
				return nil
			}
			esc = e
			t.cur.Advance(len(w))
			t.bytesSkipped += int64(len(w))
		}
	}
	// Number or keyword: everything up to a separator, bracket or space.
	for {
		err := t.cur.Fill()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		w := t.cur.Window()
		i := 0
	scan:
		for i < len(w) {
			switch w[i] {
			case ',', '}', ']', ' ', '\t', '\r', '\n':
				break scan
			}
			i++
		}
		t.cur.Advance(i)
		t.bytesSkipped += int64(i)
		if i < len(w) {
			return nil
		}
	}
}

// rawSkipToEOF consumes the remaining input at byte level.
func (t *Tokenizer) rawSkipToEOF() error {
	for {
		err := t.cur.Fill()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		buf := t.cur.Window()
		t.tagsSkipped += int64(bytes.Count(buf, sepColon))
		t.cur.Advance(len(buf))
		t.bytesSkipped += int64(len(buf))
	}
}

var sepColon = []byte{':'}

// skipSpace advances past insignificant whitespace and returns the next
// byte without consuming it.
func (t *Tokenizer) skipSpace() (byte, error) {
	for {
		if err := t.cur.Fill(); err != nil {
			return 0, err
		}
		w := t.cur.Window()
		i := 0
		for i < len(w) {
			switch w[i] {
			case ' ', '\t', '\r', '\n':
				i++
				continue
			}
			break
		}
		t.cur.Advance(i)
		if i < len(w) {
			return w[i], nil
		}
	}
}

// literal consumes an exact keyword (true/false/null).
func (t *Tokenizer) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		b, err := t.cur.Byte()
		if err != nil || b != lit[i] {
			if err == nil {
				t.cur.Unread()
			}
			return t.unexpectedSep(err, b, fmt.Sprintf("literal %q", lit))
		}
	}
	return nil
}

// readString consumes a JSON string (the opening quote not yet
// consumed) and returns its decoded value. A key (isKey) becomes an
// element name through t.key, which also sets t.keySym. The hot loop
// scans whole windows for the next quote, backslash or control byte; on
// the []byte path an escape-free string is borrowed from the input.
func (t *Tokenizer) readString(isKey bool) (string, error) {
	if b, err := t.cur.Byte(); err != nil || b != '"' {
		if err == nil {
			t.cur.Unread()
		}
		return "", t.unexpectedSep(err, b, "string")
	}
	buf := t.textBuf[:0]
	first := true
	for {
		if err := t.cur.Fill(); err != nil {
			return "", t.unexpectedEOF(err, "inside string")
		}
		w := t.cur.Window()
		i := 0
		for i < len(w) && !strStop[w[i]] {
			i++
		}
		if i == len(w) {
			// Window exhausted mid-segment (reader path): copy, refill.
			buf = append(buf, w...)
			t.cur.Advance(len(w))
			first = false
			continue
		}
		c := w[i]
		if c == '"' {
			if first {
				// Escape-free and inside one window: no copy needed.
				seg := w[:i]
				t.cur.Advance(i + 1)
				if isKey {
					return t.key(seg, t.cur.Fixed()), nil
				}
				if t.cur.Fixed() {
					return cursor.Borrow(seg), nil
				}
				return string(seg), nil
			}
			buf = append(buf, w[:i]...)
			t.cur.Advance(i + 1)
			t.textBuf = buf
			if isKey {
				return t.key(buf, false), nil
			}
			return string(buf), nil
		}
		if c < 0x20 {
			t.cur.Advance(i + 1)
			return "", t.errf("raw control character 0x%02x in string", c)
		}
		// Escape sequence.
		buf = append(buf, w[:i]...)
		t.cur.Advance(i + 1) // consume the backslash
		first = false
		e, err := t.cur.Byte()
		if err != nil {
			return "", t.unexpectedEOF(err, "inside string escape")
		}
		switch e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, err := t.readHex4()
			if err != nil {
				return "", err
			}
			if utf16.IsSurrogate(rune(r)) {
				// Try to combine with a following \uXXXX low half.
				if b2, err2 := t.cur.Peek(2); err2 == nil && len(b2) == 2 && b2[0] == '\\' && b2[1] == 'u' {
					t.cur.Advance(2)
					r2, err := t.readHex4()
					if err != nil {
						return "", err
					}
					if dec := utf16.DecodeRune(rune(r), rune(r2)); dec != utf8.RuneError {
						buf = utf8.AppendRune(buf, dec)
						continue
					}
					buf = utf8.AppendRune(buf, utf8.RuneError)
					buf = utf8.AppendRune(buf, utf8.RuneError)
					continue
				}
				buf = utf8.AppendRune(buf, utf8.RuneError)
				continue
			}
			buf = utf8.AppendRune(buf, rune(r))
		default:
			return "", t.errf("invalid string escape '\\%c'", e)
		}
	}
}

// key returns the element name for the decoded object key b and sets
// t.keySym: the alphabet's canonical string for an in-alphabet key;
// otherwise b itself, borrowed, when borrow says b is a subslice of a
// []byte input, or the interned copy.
func (t *Tokenizer) key(b []byte, borrow bool) string {
	if t.keySym = t.syms.LookupBytes(b); t.keySym != 0 {
		return t.syms.Name(t.keySym)
	}
	if borrow {
		return cursor.Borrow(b)
	}
	return t.internKey(b)
}

// strStop marks the bytes that end readString's plain run: the quote,
// the backslash and raw control characters. One table load per byte
// replaces three comparisons in the hot loop.
var strStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = true, true
	return t
}()

// internKey returns the canonical string for an object key. Hits cost a
// map lookup with no allocation; misses store an owned copy, never
// borrowed input.
func (t *Tokenizer) internKey(b []byte) string {
	if s, ok := t.names[string(b)]; ok {
		return s
	}
	s := string(b)
	t.names[s] = s
	return s
}

// readHex4 consumes four hex digits of a \u escape.
func (t *Tokenizer) readHex4() (uint32, error) {
	var r uint32
	for i := 0; i < 4; i++ {
		b, err := t.cur.Byte()
		if err != nil {
			return 0, t.unexpectedEOF(err, "inside \\u escape")
		}
		switch {
		case b >= '0' && b <= '9':
			r = r<<4 | uint32(b-'0')
		case b >= 'a' && b <= 'f':
			r = r<<4 | uint32(b-'a'+10)
		case b >= 'A' && b <= 'F':
			r = r<<4 | uint32(b-'A'+10)
		default:
			return 0, t.errf("invalid hex digit %q in \\u escape", b)
		}
	}
	return r, nil
}

// isNumberByte reports whether b can appear in a JSON number literal.
func isNumberByte(b byte) bool {
	return (b >= '0' && b <= '9') || b == '-' || b == '+' || b == '.' || b == 'e' || b == 'E'
}

// readNumber consumes a JSON number and returns its literal text
// verbatim, preserving the input's formatting. On the []byte path the
// literal is borrowed from the input without allocating.
func (t *Tokenizer) readNumber() (string, error) {
	if t.cur.Fixed() {
		w := t.cur.Window()
		i := 0
		for i < len(w) && isNumberByte(w[i]) {
			i++
		}
		t.cur.Advance(i)
		if i == 0 || (i == 1 && w[0] == '-') {
			return "", t.errf("malformed number")
		}
		return cursor.Borrow(w[:i]), nil
	}
	buf := t.textBuf[:0]
	for {
		err := t.cur.Fill()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		w := t.cur.Window()
		i := 0
		for i < len(w) && isNumberByte(w[i]) {
			i++
		}
		buf = append(buf, w[:i]...)
		t.cur.Advance(i)
		if i < len(w) {
			break
		}
	}
	t.textBuf = buf
	if len(buf) == 0 || (len(buf) == 1 && buf[0] == '-') {
		return "", t.errf("malformed number")
	}
	return string(buf), nil
}

func (t *Tokenizer) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.cur.Offset(), Msg: fmt.Sprintf(format, args...)}
}

// unexpectedEOF folds an io error into a syntax error for truncated
// input, preserving genuine read errors.
func (t *Tokenizer) unexpectedEOF(err error, where string) error {
	if err == io.EOF {
		return t.errf("unexpected end of input %s", where)
	}
	if err != nil {
		return err
	}
	return t.errf("unexpected state %s", where)
}

func (t *Tokenizer) unexpectedSep(err error, got byte, want string) error {
	if err != nil {
		return t.unexpectedEOF(err, "expecting "+want)
	}
	return t.errf("expected %s, got %q", want, got)
}

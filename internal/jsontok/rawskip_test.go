package jsontok

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// refRawSkip is rawSkip as it was before the string kernel: one byte at
// a time, with an escaped flag carried across windows. It is the
// reference the kernel-based rawSkip must match exactly.
func (t *Tokenizer) refRawSkip(depth int) error {
	inStr := false
	escaped := false
	for {
		if err := t.cur.Fill(); err != nil {
			return t.unexpectedEOF(err, "inside skipped value")
		}
		buf := t.cur.Window()
		for i := 0; i < len(buf); i++ {
			c := buf[i]
			if inStr {
				switch {
				case escaped:
					escaped = false
				case c == '\\':
					escaped = true
				case c == '"':
					inStr = false
				}
				continue
			}
			switch c {
			case '"':
				inStr = true
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

// refSkipScalar is skipScalar as it was before the string kernel.
func (t *Tokenizer) refSkipScalar() error {
	b, err := t.skipSpace()
	if err != nil {
		return t.unexpectedEOF(err, "expecting skipped value")
	}
	if b == '"' {
		t.cur.Advance(1)
		t.bytesSkipped++
		escaped := false
		for {
			if err := t.cur.Fill(); err != nil {
				return t.unexpectedEOF(err, "inside skipped string")
			}
			w := t.cur.Window()
			for i := 0; i < len(w); i++ {
				c := w[i]
				switch {
				case escaped:
					escaped = false
				case c == '\\':
					escaped = true
				case c == '"':
					t.cur.Advance(i + 1)
					t.bytesSkipped += int64(i + 1)
					return nil
				}
			}
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

// skipOutcome is everything a skip leaves observable: where the cursor
// stopped, the two counters and the error.
type skipOutcome struct {
	off, skipped, tags int64
	err                string
}

// skipInput is one way of feeding the input to a tokenizer.
type skipInput struct {
	name string
	open func(data []byte) *Tokenizer
}

// readerTokenizer builds an unpooled tokenizer over r with the given
// window size, so small windows put boundaries inside the input.
func readerTokenizer(r io.Reader, size int) *Tokenizer {
	t := &Tokenizer{names: make(map[string]string)}
	t.cur.ResetReader(r, size)
	t.reset()
	return t
}

// skipInputs covers the []byte path and the reader path with windows
// split at every offset (OneByteReader), at irregular offsets
// (HalfReader) and at small fixed window sizes.
var skipInputs = []skipInput{
	{"bytes", func(d []byte) *Tokenizer { return NewTokenizerBytes(d) }},
	{"reader", func(d []byte) *Tokenizer { return NewTokenizer(bytes.NewReader(d)) }},
	{"onebyte", func(d []byte) *Tokenizer { return NewTokenizer(iotest.OneByteReader(bytes.NewReader(d))) }},
	{"half", func(d []byte) *Tokenizer { return NewTokenizer(iotest.HalfReader(bytes.NewReader(d))) }},
	{"window16", func(d []byte) *Tokenizer { return readerTokenizer(bytes.NewReader(d), 16) }},
	{"window17", func(d []byte) *Tokenizer { return readerTokenizer(bytes.NewReader(d), 17) }},
	{"window19-half", func(d []byte) *Tokenizer { return readerTokenizer(iotest.HalfReader(bytes.NewReader(d)), 19) }},
}

func runSkip(in skipInput, data []byte, skip func(*Tokenizer) error) skipOutcome {
	t := in.open(data)
	defer t.Release()
	var o skipOutcome
	if err := skip(t); err != nil {
		o.err = err.Error()
	}
	o.off, o.skipped, o.tags = t.cur.Offset(), t.BytesSkipped(), t.TagsSkipped()
	return o
}

// checkSkipParity runs the kernel-based skips and their references over
// data on every input shape and fails on the first difference.
func checkSkipParity(t *testing.T, data []byte) {
	t.Helper()
	for _, in := range skipInputs {
		cases := []struct {
			name      string
			got, want func(*Tokenizer) error
		}{
			{"rawSkip", func(t *Tokenizer) error { return t.rawSkip(1) }, func(t *Tokenizer) error { return t.refRawSkip(1) }},
			{"skipScalar", (*Tokenizer).skipScalar, (*Tokenizer).refSkipScalar},
		}
		for _, c := range cases {
			got, want := runSkip(in, data, c.got), runSkip(in, data, c.want)
			if got != want {
				t.Fatalf("%s on %s input %q:\n got %+v\nwant %+v", c.name, in.name, data, got, want)
			}
		}
	}
}

// skipSeeds are inputs whose strings end in runs of 0–4 backslashes
// before a quote, shifted so that the run and the quote land on every
// side of the 16/17/19-byte window edges, plus unterminated strings and
// escapes that end the input.
func skipSeeds() []string {
	var out []string
	for n := 0; n <= 4; n++ {
		bs := strings.Repeat(`\`, n)
		for pad := 0; pad <= 20; pad++ {
			p := strings.Repeat("a", pad)
			out = append(out,
				`"`+p+bs+`"`+`:1,"z":"w"}`,
				`"k":"`+p+bs+`"`+`,"n":[1,{"x":"}"}]}}`,
				`"`+p+bs+`"`,
				`"`+p+bs+`\"`+`"}`,
				`"`+p+bs,
			)
		}
	}
	return append(out,
		``, `}`, `]`, `"`, `\`, `"\`, `"\"`, `"\\"`,
		`123,`, `true}`, `null`, ` "a\"b"`, `{"a":{"b":[1,2,"]"]}}}`,
		`"\u0022":"\\\""}`, `"a":"b\\\\\\\\"}x`,
	)
}

// TestJSONRawSkipDifferential pins the string kernel against the
// byte-at-a-time reference on the seed corpus.
func TestJSONRawSkipDifferential(t *testing.T) {
	for _, s := range skipSeeds() {
		checkSkipParity(t, []byte(s))
	}
}

// TestStringEnd checks the kernel's carried escape state directly:
// splitting a string body at every offset must find the same closing
// quote as scanning it whole.
func TestStringEnd(t *testing.T) {
	for _, s := range skipSeeds() {
		body := []byte(s)
		whole, _ := stringEnd(body, false)
		for cut := 0; cut <= len(body); cut++ {
			q, esc := stringEnd(body[:cut], false)
			if q < 0 {
				if q2, _ := stringEnd(body[cut:], esc); q2 >= 0 {
					q = cut + q2
				}
			}
			if q != whole {
				t.Fatalf("%q cut at %d: quote at %d, want %d", s, cut, q, whole)
			}
		}
	}
}

// FuzzJSONRawSkip cross-checks the string kernel of rawSkip and
// skipScalar against the byte-at-a-time references on arbitrary input,
// on the []byte path and on reader paths split at every offset.
func FuzzJSONRawSkip(f *testing.F) {
	for _, s := range skipSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		checkSkipParity(t, data)
	})
}

package xmltok

import (
	"bufio"
	"io"
	"strings"
	"sync"
)

// Serializer writes Tokens back out as XML. It is the single output path
// of the engines, so that GCX, the projection-only engine and the DOM
// baseline produce byte-identical results for the differential tests.
type Serializer struct {
	w        *bufio.Writer
	open     []string
	bytes    int64
	err      error
	released bool
}

// serializerPool recycles Serializers and their 64 KiB write buffers
// across executions.
var serializerPool = sync.Pool{
	New: func() any {
		return &Serializer{w: bufio.NewWriterSize(io.Discard, 64<<10)}
	},
}

// NewSerializer returns a Serializer writing to w. Serializers come from
// an internal pool; callers that finish with one may hand its buffer
// back via Release.
func NewSerializer(w io.Writer) *Serializer {
	s := serializerPool.Get().(*Serializer)
	s.w.Reset(w)
	s.open = s.open[:0]
	s.bytes = 0
	s.err = nil
	s.released = false
	return s
}

// Release returns the serializer's buffer to the pool, discarding any
// unflushed output. The serializer must not be used afterwards; counters
// read before Release stay valid. Release is idempotent.
func (s *Serializer) Release() {
	if s.released {
		return
	}
	s.released = true
	s.w.Reset(io.Discard)
	serializerPool.Put(s)
}

// BytesWritten reports the number of bytes emitted so far (pre-flush
// buffering included).
func (s *Serializer) BytesWritten() int64 { return s.bytes }

// Err returns the first write error encountered, if any.
func (s *Serializer) Err() error { return s.err }

// StartElement writes an opening tag with the given attributes.
func (s *Serializer) StartElement(name string, attrs []Attr) {
	s.writeString("<")
	s.writeString(name)
	for _, a := range attrs {
		s.writeString(" ")
		s.writeString(a.Name)
		s.writeString(`="`)
		s.writeEscaped(a.Value, true)
		s.writeString(`"`)
	}
	s.writeString(">")
	s.open = append(s.open, name)
}

// EndElement writes the closing tag for name.
func (s *Serializer) EndElement(name string) {
	s.writeString("</")
	s.writeString(name)
	s.writeString(">")
	if n := len(s.open); n > 0 && s.open[n-1] == name {
		s.open = s.open[:n-1]
	}
}

// Text writes escaped character data.
func (s *Serializer) Text(text string) {
	s.writeEscaped(text, false)
}

// Token writes an arbitrary token.
func (s *Serializer) Token(t Token) {
	switch t.Kind {
	case StartElement:
		s.StartElement(t.Name, t.Attrs)
	case EndElement:
		s.EndElement(t.Name)
	case Text:
		s.Text(t.Text)
	}
}

// Flush writes any buffered output to the underlying writer and reports
// the first error seen on any operation.
func (s *Serializer) Flush() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

func (s *Serializer) writeString(str string) {
	n, err := s.w.WriteString(str)
	s.bytes += int64(n)
	if err != nil && s.err == nil {
		s.err = err
	}
}

func (s *Serializer) writeEscaped(str string, attr bool) {
	last := 0
	for i := 0; i < len(str); i++ {
		var esc string
		switch str[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		s.writeString(str[last:i])
		s.writeString(esc)
		last = i + 1
	}
	s.writeString(str[last:])
}

// EscapeText returns text with the XML character-data escapes applied.
// It is used by components that build strings rather than streams.
func EscapeText(text string) string {
	if !strings.ContainsAny(text, "<>&") {
		return text
	}
	var b strings.Builder
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteByte(text[i])
		}
	}
	return b.String()
}

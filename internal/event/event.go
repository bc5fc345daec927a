// Package event defines the format-neutral tree-event model that
// decouples the GCX runtime from any concrete input syntax.
//
// The paper's contribution — projection-driven dynamic buffer
// minimization over a token stream — only needs a stream of
// start-record/start-element/text/end-element events over an ordered
// labelled tree. Package event names that contract: a Source produces
// the events (internal/xmltok for XML, internal/jsontok for
// JSON/NDJSON), a Sink consumes the evaluator's output events, and the
// preprojector, buffer manager and engine in between operate purely on
// these types. Any new input format that can present itself as a
// Source inherits the whole stack — projection, active garbage
// collection, path-DFA subtree skipping and sharding — unchanged.
package event

import (
	"context"
	"fmt"
)

// Kind identifies the kind of a Token.
type Kind uint8

const (
	// StartElement opens a labelled tree node. Self-closing XML tags
	// produce a StartElement immediately followed by an EndElement, so
	// the paper's token counting (82 tags for 41 nodes) is preserved.
	StartElement Kind = iota
	// EndElement closes the innermost open node.
	EndElement
	// Text is character data (format-level escapes already resolved).
	Text
)

func (k Kind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element. JSON sources never produce
// attributes; constructed output elements may still carry them.
type Attr struct {
	Name  string
	Value string
}

// Token is one event of the input or output stream.
type Token struct {
	Kind Kind
	// Sym is the element name's id in the alphabet the source was given
	// with SetSymbols (0 for a name outside it, or when no alphabet is
	// set). Sources set it on StartElement tokens only. It sits beside
	// Kind, in padding that would otherwise be wasted, so a Token stays
	// 64 bytes: every Source.Next returns one by value.
	Sym int32
	// Name is the element name for StartElement and EndElement tokens.
	Name string
	// Text is the character data for Text tokens.
	Text string
	// Attrs holds the attributes of a StartElement token, in document
	// order. It is nil for all other kinds.
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SkipStats reports a Source's byte-level fast-forward counters
// (DESIGN.md §7): bytes the source never tokenized because the
// projection automaton proved them irrelevant, a lower bound on the
// structural markers (tags, containers) inside those bytes, and the
// number of fast-forwards taken.
type SkipStats struct {
	BytesSkipped    int64
	TagsSkipped     int64
	SubtreesSkipped int64
}

// Source is a pull-based producer of tree events — the format boundary
// of the engine. Implementations are single-goroutine streaming
// tokenizers; all methods must be called from one goroutine.
type Source interface {
	// Next returns the next event, io.EOF at end of input, or a
	// format-level syntax error. Cancellation of an attached context is
	// reported as ctx.Err() within one token.
	Next() (Token, error)
	// SkipSubtree fast-forwards past the subtree of the StartElement
	// most recently returned by Next, without producing its events: the
	// next Next call returns the first event after the subtree's end.
	// It must only be called immediately after Next returned a
	// StartElement.
	SkipSubtree() error
	// TokenCount reports how many events Next has delivered so far (the
	// x-axis of the paper's buffer plots).
	TokenCount() int64
	// SkipStats reports the byte-level skip counters.
	SkipStats() SkipStats
	// SetContext attaches a cancellation context checked at every pull.
	SetContext(ctx context.Context)
	// SetSymbols attaches the query's name alphabet: from then on every
	// StartElement carries its name's id in Token.Sym, and in-alphabet
	// names come back as the alphabet's own strings. It must be called
	// before the first Next; nil detaches the alphabet.
	SetSymbols(syms *Symbols)
	// Release hands pooled buffers back; the Source is unusable after.
	Release()
}

// Sink is the serializer side of the event contract: the evaluator
// writes its result tree through a Sink, which renders it in a concrete
// output syntax (XML or JSON). Implementations buffer internally and
// report write errors on Flush.
type Sink interface {
	// StartElement opens an element with the given attributes.
	StartElement(name string, attrs []Attr)
	// EndElement closes the innermost open element, which has the given
	// name.
	EndElement(name string)
	// Text appends character data to the current element (or the top
	// level), escaped as the output syntax requires.
	Text(text string)
	// Flush writes buffered output through and returns the first error
	// seen on any operation.
	Flush() error
	// BytesWritten reports the number of output bytes emitted so far,
	// buffered output included.
	BytesWritten() int64
	// Release hands pooled buffers back, discarding unflushed output;
	// the Sink is unusable after.
	Release()
}

// Virtual element names of the JSON↔tree mapping (DESIGN.md §8). They
// live here — not in jsontok — because the shardability layer and the
// path analysis refer to them without depending on the tokenizer.
const (
	// RootName labels the synthesized stream root: a JSON/NDJSON input
	// tokenizes as one RootName element containing the records.
	RootName = "root"
	// RecordName labels each top-level JSON value (one NDJSON line).
	// Array items inherit the name of the nearest enclosing object
	// member (or RecordName at the top level), so no third name exists.
	RecordName = "record"
)

// Input/output format selection (DESIGN.md §8): the engine itself is
// format-neutral — it consumes an event.Source and writes an
// event.Sink — and this file is the single place where a Format value
// resolves to concrete front ends (internal/xmltok, internal/jsontok).
package core

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"gcx/internal/event"
	"gcx/internal/jsontok"
	"gcx/internal/xmltok"
)

// Format selects the input syntax — and with it the output syntax: XML
// input serializes results as XML, JSON/NDJSON input as JSON lines. The
// engine itself is format-neutral; the format only picks which front
// end feeds it events.
type Format uint8

const (
	// FormatAuto sniffs the stream's first non-whitespace byte: '<'
	// means XML, anything else JSON. Auto never resolves to NDJSON —
	// line framing (and with it NDJSON sharding) is an explicit promise
	// the caller must make via FormatNDJSON.
	FormatAuto Format = iota
	// FormatXML is the paper's XML front end.
	FormatXML
	// FormatJSON is a stream of whitespace-separated JSON values: a
	// single document, or concatenated/pretty-printed values. Object
	// keys become element names, arrays repeated siblings, so the
	// query's paths apply unchanged under the virtual /root/record
	// document shape.
	FormatJSON
	// FormatNDJSON is newline-delimited JSON — exactly one record per
	// line, the boundary record-aligned stream sharding cuts at.
	FormatNDJSON
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatXML:
		return "xml"
	case FormatJSON:
		return "json"
	case FormatNDJSON:
		return "ndjson"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// ParseFormat resolves a CLI/URL name.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatAuto, nil
	case "xml":
		return FormatXML, nil
	case "json":
		return FormatJSON, nil
	case "ndjson", "jsonl", "json-lines":
		return FormatNDJSON, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want auto, xml, json or ndjson)", s)
	}
}

// DetectPathFormat guesses a format from a file name's extension,
// returning FormatAuto when the extension is not telling.
func DetectPathFormat(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xml":
		return FormatXML
	case ".json":
		return FormatJSON
	case ".ndjson", ".jsonl":
		return FormatNDJSON
	default:
		return FormatAuto
	}
}

// ResolveFormat materializes FormatAuto by sniffing the stream's first
// non-whitespace byte ('<' → XML, otherwise JSON). It returns the
// resolved format together with a reader that still delivers the full
// stream (the sniffed bytes are not consumed). Explicit formats pass
// through untouched.
func ResolveFormat(f Format, r io.Reader) (Format, io.Reader, error) {
	if f != FormatAuto {
		return f, r, nil
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 4096)
	}
	for skip := 0; ; skip++ {
		b, err := br.Peek(skip + 1)
		if err != nil {
			// Empty or whitespace-only input: either front end reports
			// its own (syntax) error; default to XML, the historical one.
			return FormatXML, br, nil
		}
		switch b[skip] {
		case ' ', '\t', '\r', '\n':
			continue
		case '<':
			return FormatXML, br, nil
		default:
			return FormatJSON, br, nil
		}
	}
}

// ResolveFormatBytes materializes FormatAuto for in-memory input by
// sniffing the first non-whitespace byte ('<' → XML, otherwise JSON).
// Explicit formats pass through untouched. Unlike ResolveFormat there
// is no reader to re-wrap, so nothing can fail.
func ResolveFormatBytes(f Format, data []byte) Format {
	if f != FormatAuto {
		return f
	}
	for _, b := range data {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '<':
			return FormatXML
		default:
			return FormatJSON
		}
	}
	// Empty or whitespace-only input: either front end reports its own
	// (syntax) error; default to XML, the historical one.
	return FormatXML
}

// NewSource returns the event source for a resolved format. FormatAuto
// must be resolved (ResolveFormat) before this call.
func NewSource(f Format, r io.Reader) (event.Source, error) {
	switch f {
	case FormatXML:
		return xmltok.NewTokenizer(r), nil
	case FormatJSON, FormatNDJSON:
		return jsontok.NewTokenizer(r), nil
	default:
		return nil, fmt.Errorf("core: format %v has no event source (resolve auto first)", f)
	}
}

// NewSourceBytes returns the zero-copy event source for a resolved
// format: windows and text tokens alias data, which the caller must not
// mutate until the run is over. FormatAuto must be resolved
// (ResolveFormatBytes) before this call.
func NewSourceBytes(f Format, data []byte) (event.Source, error) {
	switch f {
	case FormatXML:
		return xmltok.NewTokenizerBytes(data), nil
	case FormatJSON, FormatNDJSON:
		return jsontok.NewTokenizerBytes(data), nil
	default:
		return nil, fmt.Errorf("core: format %v has no event source (resolve auto first)", f)
	}
}

// NewSink returns the event sink matching a resolved input format: XML
// results for XML input, JSON-lines results for JSON/NDJSON input.
func NewSink(f Format, w io.Writer) (event.Sink, error) {
	switch f {
	case FormatXML:
		return xmltok.NewSerializer(w), nil
	case FormatJSON, FormatNDJSON:
		return jsontok.NewSerializer(w), nil
	default:
		return nil, fmt.Errorf("core: format %v has no event sink (resolve auto first)", f)
	}
}

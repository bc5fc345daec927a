package core

import (
	"context"
	"strings"
	"testing"

	"gcx/internal/engine"
)

const doc = `<bib><book><title>A</title></book><book><title>B</title></book></bib>`
const query = `<out>{ for $b in /bib/book return $b/title }</out>`

func TestCompile(t *testing.T) {
	plan, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Source != query {
		t.Fatal("Source not recorded")
	}
	if len(plan.Roles) == 0 || plan.Rewritten == nil || plan.Normalized == nil {
		t.Fatal("plan incomplete")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(`for $x in`); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Compile(`$nope/x`); err == nil {
		t.Fatal("analysis error not surfaced")
	}
}

func TestExecuteAllEngines(t *testing.T) {
	plan, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	want := `<out><title>A</title><title>B</title></out>`
	for _, kind := range []Engine{EngineGCX, EngineProjectionOnly, EngineDOM} {
		var out strings.Builder
		res, err := Run(context.Background(), plan, Input{Reader: strings.NewReader(doc)}, &out, &Options{Engine: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if out.String() != want {
			t.Fatalf("%s output = %q", kind, out.String())
		}
		if res.Duration <= 0 {
			t.Fatalf("%s duration not measured", kind)
		}
		if res.PeakBufferedNodes <= 0 {
			t.Fatalf("%s peak missing", kind)
		}
	}
}

func TestExecuteRecordsSeries(t *testing.T) {
	plan, err := Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := Run(context.Background(), plan, Input{Reader: strings.NewReader(doc)}, &out, &Options{RecordEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("series not recorded")
	}
	// recording is a streaming-engine feature; DOM ignores it
	res, err = Run(context.Background(), plan, Input{Bytes: []byte(doc)}, &out, &Options{Engine: EngineDOM, RecordEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Fatal("DOM must not record a series")
	}
}

func TestParseEngineKind(t *testing.T) {
	cases := map[string]Engine{
		"": EngineGCX, "gcx": EngineGCX, "projection": EngineProjectionOnly, "proj": EngineProjectionOnly,
		"nogc": EngineProjectionOnly, "dom": EngineDOM, "naive": EngineDOM,
	}
	for s, want := range cases {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
		// The canonical name round-trips.
		if back, err := ParseEngine(got.String()); err != nil || back != got {
			t.Errorf("ParseEngine(%q) = %v, %v", got.String(), back, err)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

func TestParseSignOffMode(t *testing.T) {
	for s, want := range map[string]engine.SignOffMode{"": engine.Deferred, "deferred": engine.Deferred, "eager": engine.Eager} {
		if got, err := ParseSignOffMode(s); err != nil || got != want {
			t.Errorf("ParseSignOffMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSignOffMode("lazy"); err == nil {
		t.Fatal("bogus sign-off mode accepted")
	}
}

func TestEngineKindString(t *testing.T) {
	for kind, want := range map[Engine]string{EngineGCX: "gcx", EngineProjectionOnly: "projection", EngineDOM: "dom"} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q", kind, kind.String())
		}
	}
}

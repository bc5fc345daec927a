package gcxd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// TestServerFullDuplexReaderPath: a sharded request on the streaming
// reader path writes more than net/http's 2 KiB pre-header buffer of
// output while less than 256 KiB of its body is still unread. Unless
// the handler enables full duplex, HTTP/1 then discards and closes the
// unread body as the response header flushes, and the splitter, which
// is still reading, fails mid-stream. The body is uploaded slowly, so
// the first chunk's output is written long before the upload ends.
func TestServerFullDuplexReaderPath(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{CacheSize: 8, BytesBodyLimit: -1}))
	defer ts.Close()

	doc := testDoc(3, 3000) // about 165 KiB, 63 KiB of output
	want := expectedOutput(t, testQuery, doc)
	if len(doc) >= 256<<10 || len(want) <= 2<<10 {
		t.Fatalf("doc %d bytes, output %d bytes: the shape needs < 256 KiB in and > 2 KiB out", len(doc), len(want))
	}
	outputs := map[string]string{}
	for _, shards := range []string{"1", "2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		pr, pw := io.Pipe()
		go func() {
			for rest := doc; rest != ""; {
				n := min(2<<10, len(rest))
				if _, err := io.WriteString(pw, rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
				time.Sleep(time.Millisecond)
			}
			pw.Close()
		}()
		u := ts.URL + "/query?shards=" + shards + "&query=" + url.QueryEscape(testQuery)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, pr)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = int64(len(doc))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("shards=%s: %v", shards, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("shards=%s: reading response: %v", shards, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%s: status %d: %s", shards, resp.StatusCode, body)
		}
		if e := resp.Trailer.Get("X-Gcx-Error"); e != "" {
			t.Fatalf("shards=%s: X-Gcx-Error: %s", shards, e)
		}
		outputs[shards] = string(body)
	}
	if outputs["2"] != outputs["1"] {
		t.Fatalf("shards=2 output (%d bytes) differs from shards=1 (%d bytes)", len(outputs["2"]), len(outputs["1"]))
	}
	if outputs["1"] != want {
		t.Fatalf("output (%d bytes) differs from the library's (%d bytes)", len(outputs["1"]), len(want))
	}
}

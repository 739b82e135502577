// Tests for the ingest fast path: decode/validate/intern staging (a
// rejected batch must leave the interners untouched), JSON ≡ binary-frame
// equivalence at the HTTP layer, and the endpoint's edge cases — empty
// bodies, mixed NDJSON/array connections, UTF-8 escapes, and the body
// size limit.
package detectd

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"coordbot/internal/projection"
	"coordbot/internal/stream"
	"coordbot/internal/wire"
)

func signalTestConfig() Config {
	return Config{
		Window:  projection.Window{Min: 0, Max: 60},
		Horizon: 24 * 3600,
		Signals: []stream.SignalConfig{
			{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
			{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}},
			{Signal: projection.HashtagShare{W: projection.Window{Min: 0, Max: 300}}},
			{Signal: projection.ReplyTarget{W: projection.Window{Min: 0, Max: 120}}},
		},
		ClampLate: true,
	}
}

func postFrame(t *testing.T, url string, frame []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, wire.ContentTypeFrame, strings.NewReader(string(frame)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func settle(t *testing.T, s *Service, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.ingested.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("worker did not drain: ingested=%d want>=%d", s.ingested.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestRejectedBatchInternsNothing: a batch that fails validation
// mid-way must not leak a single name into any interner — the whole body
// is validated before the first Intern call.
func TestIngestRejectedBatchInternsNothing(t *testing.T) {
	s, srv := newTestService(t, signalTestConfig())
	authors, pages := s.authors.Len(), s.pageIDs.Len()
	urls, tags := s.urlIDs.Len(), s.tagIDs.Len()
	body := `[
		{"author":"fresh_a","page":"fresh_p","ts":1,"urls":["fresh_u"],"tags":["fresh_t"],"reply_to":"fresh_r"},
		{"author":"","page":"fresh_p2","ts":2}
	]`
	resp := postJSON(t, srv.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if s.authors.Len() != authors || s.pageIDs.Len() != pages ||
		s.urlIDs.Len() != urls || s.tagIDs.Len() != tags {
		t.Fatalf("rejected batch polluted interners: authors %d->%d pages %d->%d urls %d->%d tags %d->%d",
			authors, s.authors.Len(), pages, s.pageIDs.Len(), urls, s.urlIDs.Len(), tags, s.tagIDs.Len())
	}
	// Same for a decode failure after valid comments.
	resp = postJSON(t, srv.URL+"/v1/ingest", `[{"author":"fresh_b","page":"fresh_p3","ts":3}, {"author":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if s.authors.Len() != authors {
		t.Fatalf("truncated batch polluted authors: %d -> %d", authors, s.authors.Len())
	}
}

// TestIngestJSONAndFrameEquivalent drives the same comments through the
// JSON endpoint of one daemon and the binary-frame endpoint of another:
// interned IDs, ingest counters, and the projected live graph must match
// exactly.
func TestIngestJSONAndFrameEquivalent(t *testing.T) {
	type tc struct {
		author, page string
		ts           int64
		urls, tags   []string
		reply        string
	}
	comments := []tc{
		{author: "alice", page: "p1", ts: 100},
		{author: "böb", page: "p1", ts: 110, urls: []string{"http://x/y", "u2"}},
		{author: "carol\t", page: "p/2", ts: 120, tags: []string{"tag1", "はた"}, reply: "alice"},
		{author: "alice", page: "p/2", ts: 130, urls: []string{"http://x/y"}, tags: []string{"tag1"}},
		{author: "dave", page: "p1", ts: 140, reply: "böb"},
	}
	var jb strings.Builder
	jb.WriteByte('[')
	enc := wire.NewEncoder()
	for i, c := range comments {
		if i > 0 {
			jb.WriteByte(',')
		}
		fmt.Fprintf(&jb, `{"author":%q,"page":%q,"ts":%d`, c.author, c.page, c.ts)
		if len(c.urls) > 0 {
			fmt.Fprintf(&jb, `,"urls":[%q`, c.urls[0])
			for _, u := range c.urls[1:] {
				fmt.Fprintf(&jb, `,%q`, u)
			}
			jb.WriteByte(']')
		}
		if len(c.tags) > 0 {
			fmt.Fprintf(&jb, `,"tags":[%q`, c.tags[0])
			for _, tg := range c.tags[1:] {
				fmt.Fprintf(&jb, `,%q`, tg)
			}
			jb.WriteByte(']')
		}
		if c.reply != "" {
			fmt.Fprintf(&jb, `,"reply_to":%q`, c.reply)
		}
		jb.WriteByte('}')
		enc.AddAttrs(c.author, c.page, c.ts, c.urls, c.tags, c.reply)
	}
	jb.WriteByte(']')

	js, jsrv := newTestService(t, signalTestConfig())
	fs, fsrv := newTestService(t, signalTestConfig())
	resp := postJSON(t, jsrv.URL+"/v1/ingest", jb.String())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("json ingest = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postFrame(t, fsrv.URL+"/v1/ingest", enc.Bytes())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("frame ingest = %d", resp.StatusCode)
	}
	resp.Body.Close()
	settle(t, js, int64(len(comments)))
	settle(t, fs, int64(len(comments)))

	if js.authors.Len() != fs.authors.Len() || js.pageIDs.Len() != fs.pageIDs.Len() ||
		js.urlIDs.Len() != fs.urlIDs.Len() || js.tagIDs.Len() != fs.tagIDs.Len() {
		t.Fatalf("interner sizes diverged: authors %d/%d pages %d/%d urls %d/%d tags %d/%d",
			js.authors.Len(), fs.authors.Len(), js.pageIDs.Len(), fs.pageIDs.Len(),
			js.urlIDs.Len(), fs.urlIDs.Len(), js.tagIDs.Len(), fs.tagIDs.Len())
	}
	for _, name := range []string{"alice", "böb", "carol\t", "dave"} {
		ji, jok := js.authors.Lookup(name)
		fi, fok := fs.authors.Lookup(name)
		if !jok || !fok || ji != fi {
			t.Fatalf("author %q: json (%d,%v) frame (%d,%v)", name, ji, jok, fi, fok)
		}
	}
	js.mu.Lock()
	jsnap := js.proj.Snapshot()
	js.mu.Unlock()
	fs.mu.Lock()
	fsnap := fs.proj.Snapshot()
	fs.mu.Unlock()
	if !jsnap.Equal(fsnap) {
		t.Fatalf("projected graphs diverged: json %d edges, frame %d edges",
			jsnap.NumEdges(), fsnap.NumEdges())
	}
	if jsnap.NumEdges() == 0 {
		t.Fatal("equivalence vacuous: no edges projected")
	}
}

// TestIngestEscapedFieldsDecodeIdentically: escaped JSON strings must
// land in the interners unescaped, identical to the raw bytes a frame
// carries.
func TestIngestEscapedFieldsDecodeIdentically(t *testing.T) {
	s, srv := newTestService(t, signalTestConfig())
	body := `[{"author":"aAb😀","page":"p\tq","ts":1,"urls":["http:\/\/x\/y"],"tags":["tég"]}]`
	resp := postJSON(t, srv.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	settle(t, s, 1)
	if _, ok := s.authors.Lookup("aAb😀"); !ok {
		t.Fatal("escaped author not interned unescaped")
	}
	if _, ok := s.pageIDs.Lookup("p\tq"); !ok {
		t.Fatal("escaped page not interned unescaped")
	}
	if _, ok := s.urlIDs.Lookup("http://x/y"); !ok {
		t.Fatal("escaped url not interned unescaped")
	}
	if _, ok := s.tagIDs.Lookup("tég"); !ok {
		t.Fatal("escaped tag not interned unescaped")
	}
}

// TestIngestMixedNDJSONAndArray: one connection may concatenate bare
// objects and arrays.
func TestIngestMixedNDJSONAndArray(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	body := "{\"author\":\"a\",\"page\":\"p\",\"ts\":1}\n[{\"author\":\"b\",\"page\":\"p\",\"ts\":2},{\"author\":\"c\",\"page\":\"p\",\"ts\":3}]\n{\"author\":\"d\",\"page\":\"p\",\"ts\":4}"
	resp := postJSON(t, srv.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := decodeBody[map[string]int](t, resp); got["accepted"] != 4 {
		t.Fatalf("accepted = %d, want 4", got["accepted"])
	}
	settle(t, s, 4)
}

// TestIngestEmptyBatches: a deliberately empty batch ("[]", or a frame
// declaring zero comments) is accepted with accepted=0; an empty or
// all-whitespace body is a client error.
func TestIngestEmptyBatches(t *testing.T) {
	_, srv := newTestService(t, testConfig())
	for _, body := range []string{"[]", " [ ] \n"} {
		resp := postJSON(t, srv.URL+"/v1/ingest", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%q: status = %d, want 202", body, resp.StatusCode)
		}
		if got := decodeBody[map[string]int](t, resp); got["accepted"] != 0 {
			t.Fatalf("%q: accepted = %d, want 0", body, got["accepted"])
		}
	}
	for _, body := range []string{"", "   \n\t "} {
		resp := postJSON(t, srv.URL+"/v1/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status = %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postFrame(t, srv.URL+"/v1/ingest", wire.NewEncoder().Bytes())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty frame: status = %d, want 202", resp.StatusCode)
	}
	if got := decodeBody[map[string]int](t, resp); got["accepted"] != 0 {
		t.Fatalf("empty frame: accepted = %d, want 0", got["accepted"])
	}
	// A frame body without the frame content type is JSON garbage.
	resp = postJSON(t, srv.URL+"/v1/ingest", string(wire.NewEncoder().Bytes()))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("frame as JSON: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestIngestBytesCountsApplied: without ClampLate a late comment is
// dropped, and IngestBytes reports only the comments it applied.
func TestIngestBytesCountsApplied(t *testing.T) {
	s, err := NewService(Config{Window: projection.Window{Min: 0, Max: 60}, Horizon: 3600})
	if err != nil {
		t.Fatal(err)
	}
	body := `[{"author":"a","page":"p","ts":100},{"author":"b","page":"p","ts":50},{"author":"c","page":"p","ts":101}]`
	n, err := s.IngestBytes("application/json", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s.Ingested() != 2 || s.dropped.Load() != 1 {
		t.Fatalf("IngestBytes = %d, ingested %d, dropped %d; want 2, 2, 1", n, s.Ingested(), s.dropped.Load())
	}
}

// TestIngestBodyTooLarge: a body over maxIngestBody is refused with 413
// before any decoding.
func TestIngestBodyTooLarge(t *testing.T) {
	_, srv := newTestService(t, testConfig())
	// Stream maxIngestBody+1 bytes of whitespace without materializing
	// them client-side.
	r := io.LimitReader(ws{}, maxIngestBody+1)
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/json", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// ws is an endless whitespace reader.
type ws struct{}

func (ws) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

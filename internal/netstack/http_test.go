package netstack

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"jitsu/internal/sim"
)

// parseResponse parses a full response buffer the way a fetch does: it
// is httpGet's own incremental parser, handed everything at once.
func parseResponse(buf []byte) (*HTTPResponse, bool) {
	g := &httpGet{buf: buf}
	if !g.whole() {
		return nil, false
	}
	return &g.resp, true
}

// ---- the codec as it stood before it stopped allocating per token ----
// (strings.Split, a map per message, fmt into a strings.Builder), kept
// as the reference the new one is compared against.

type refMessage struct {
	method, path string
	status       int
	header       map[string]string
	body         []byte
}

func refHeaders(lines []string) map[string]string {
	h := map[string]string{}
	for _, ln := range lines {
		if k, v, ok := strings.Cut(ln, ":"); ok {
			h[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	return h
}

func refParseRequest(buf []byte) (*refMessage, bool) {
	idx := strings.Index(string(buf), "\r\n\r\n")
	if idx < 0 {
		return nil, false
	}
	lines := strings.Split(string(buf[:idx]), "\r\n")
	parts := strings.Fields(lines[0])
	if len(parts) < 3 {
		return nil, false
	}
	return &refMessage{method: parts[0], path: parts[1], header: refHeaders(lines[1:])}, true
}

func refParseResponse(buf []byte) (*refMessage, bool) {
	s := string(buf)
	idx := strings.Index(s, "\r\n\r\n")
	if idx < 0 {
		return nil, false
	}
	head, body := s[:idx], buf[idx+4:]
	lines := strings.Split(head, "\r\n")
	parts := strings.Fields(lines[0])
	if len(parts) < 2 {
		return nil, false
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, false
	}
	m := &refMessage{status: status, header: refHeaders(lines[1:])}
	if cl, ok := m.header["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || len(body) < n {
			return nil, false
		}
		body = body[:n]
	}
	m.body = append([]byte(nil), body...)
	return m, true
}

func refEncodeRequest(method, path, host string) []byte {
	return []byte(fmt.Sprintf("%s %s HTTP/1.0\r\nHost: %s\r\nUser-Agent: jitsu-sim\r\n\r\n", method, path, host))
}

func refEncodeResponse(status int, header map[string]string, body []byte) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.0 %d %s\r\n", status, statusText(status))
	keys := make([]string, 0, len(header))
	for k := range header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, header[k])
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	return append([]byte(b.String()), body...)
}

// sameHeaders holds a Header to the reference's map: every name the old
// parser kept reads the same value, in any case, and nothing else is
// there.
func sameHeaders(t *testing.T, in string, got Header, want map[string]string) {
	t.Helper()
	for k, v := range want {
		if g := got.Get(k); g != v {
			t.Errorf("%q: header %q = %q, reference %q", in, k, g, v)
		}
		if g := got.Get(strings.ToUpper(k)); g != v {
			t.Errorf("%q: header %q = %q, reference %q", in, strings.ToUpper(k), g, v)
		}
	}
	if v := got.Get("x-never-sent"); v != "" {
		t.Errorf("%q: found a header nobody sent: %q", in, v)
	}
}

func TestHTTPParseMatchesReference(t *testing.T) {
	requests := []string{
		"GET /photos HTTP/1.0\r\nHost: alice.family.name\r\n\r\n",
		"GET / HTTP/1.0\r\n\r\n",
		"GET / HTTP/1.0\r\nHost: x\r\n",   // truncated head
		"GET / HTTP/1.0\r\nHost: x\r\n\r", // truncated blank line
		"GET /\r\nHost: x\r\n\r\n",        // no protocol
		"GET\r\n\r\n",
		"\r\n\r\n",
		"",
		"  GET \t /a/b   HTTP/1.0  extra\r\nhOsT:x\r\n\r\nbody",
		"GET / HTTP/1.0\r\n  Host  :  padded.example  \r\nUSER-AGENT:jitsu\r\nno colon here\r\nX-Dup: 1\r\nx-dup: 2\r\nX-Empty:\r\n\r\n",
		"POST /q HTTP/1.0\r\nA: b: c\r\n\r\n\r\n\r\n",
	}
	for _, in := range requests {
		got, ok := parseRequest([]byte(in))
		want, wantOK := refParseRequest([]byte(in))
		if ok != wantOK {
			t.Errorf("%q: ok=%v, reference %v", in, ok, wantOK)
			continue
		}
		if !ok {
			continue
		}
		if got.Method != want.method || got.Path != want.path {
			t.Errorf("%q: %s %s, reference %s %s", in, got.Method, got.Path, want.method, want.path)
		}
		sameHeaders(t, in, got.Header, want.header)
	}

	responses := []string{
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhell",        // short body
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello world", // long body: cut
		"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.0 404 Not Found\r\n\r\nclose-delimited body", // no Content-Length
		"HTTP/1.0 200 OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n", // truncated head
		"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r",
		"HTTP/1.0 200 OK\r\nContent-Length: five\r\n\r\nhello", // malformed length
		"HTTP/1.0 OK\r\n\r\n",                                  // malformed status
		"HTTP/1.0\r\n\r\n",
		"\r\n\r\n",
		"",
		"HTTP/1.0   503  Service Unavailable\r\ncOnTeNt-LeNgTh :  3 \r\nX-Svc: jitsu\r\n\r\nabcdef",
		"HTTP/1.0 200 OK\r\nContent-Length: 9\r\ncontent-length: 2\r\n\r\nabcdef", // last wins
		"HTTP/1.0 200 OK\r\nX-Queue-Item: 7\r\nContent-Length: 4\r\n\r\n\r\n\r\n",
	}
	for _, in := range responses {
		got, ok := parseResponse([]byte(in))
		want, wantOK := refParseResponse([]byte(in))
		if ok != wantOK {
			t.Errorf("%q: ok=%v, reference %v", in, ok, wantOK)
			continue
		}
		if !ok {
			continue
		}
		if got.Status != want.status || !bytes.Equal(got.Body, want.body) {
			t.Errorf("%q: %d %q, reference %d %q", in, got.Status, got.Body, want.status, want.body)
		}
		sameHeaders(t, in, got.Header, want.header)
	}
}

// TestHTTPEmptyContentLength records the one input the new parser reads
// differently on purpose: a Content-Length with no value is a header
// that is not there (the body is close-delimited), where the old map
// made it a malformed head, and the fetch failed when the connection closed.
func TestHTTPEmptyContentLength(t *testing.T) {
	in := []byte("HTTP/1.0 200 OK\r\nContent-Length:\r\n\r\nhello")
	if _, ok := refParseResponse(in); ok {
		t.Fatal("the reference accepted it")
	}
	if r, ok := parseResponse(in); !ok || string(r.Body) != "hello" {
		t.Fatalf("parseResponse: %+v ok=%v", r, ok)
	}
}

func TestHTTPEncodeMatchesReference(t *testing.T) {
	for _, r := range []struct {
		path string
		host IP
	}{
		{"/", IPv4(10, 0, 0, 20)},
		{"/photos/2014/index.html", IPv4(192, 168, 100, 255)},
		{"", IP{}},
	} {
		if got, want := appendGet(nil, r.path, r.host), refEncodeRequest("GET", r.path, r.host.String()); !bytes.Equal(got, want) {
			t.Errorf("appendGet(%q, %v) = %q, reference %q", r.path, r.host, got, want)
		}
	}
	big := bytes.Repeat([]byte("x"), 64*1024)
	for _, r := range []struct {
		status int
		header Header
		ref    map[string]string
		body   []byte
	}{
		{200, "", nil, []byte("hello")},
		{200, "", nil, nil},
		{404, "", nil, []byte("not found")},
		{503, "", nil, nil},
		{500, "", nil, nil},
		{-1, "", nil, []byte("x")},
		{200, "X-Queue-Item: 12345", map[string]string{"X-Queue-Item": "12345"}, big},
		// Several: the reference sorted its map, a handler now writes
		// them in the order it wants.
		{200, "A: 1\r\nB: 2", map[string]string{"B": "2", "A": "1"}, []byte("ab")},
	} {
		// After bytes already queued, as in a send buffer.
		got := appendResponse([]byte("queued"), &HTTPResponse{Status: r.status, Header: r.header, Body: r.body})
		if want := refEncodeResponse(r.status, r.ref, r.body); !bytes.Equal(got, append([]byte("queued"), want...)) {
			t.Errorf("appendResponse(%d, %q, %d bytes) = %q, reference %q", r.status, r.header, len(r.body), got, want)
		}
	}
}

// TestHTTPCodecAllocs: a message rendered into a buffer with room (a
// send buffer) costs nothing; parsing a head costs its one string and
// little more.
func TestHTTPCodecAllocs(t *testing.T) {
	plain := &HTTPResponse{Status: 200, Body: []byte("hello")}
	tagged := &HTTPResponse{Status: 200, Header: "X-Queue-Item: 7", Body: []byte("hello")}
	host := IPv4(10, 0, 0, 20)
	reqWire := appendGet(nil, "/photos", host)
	respWire := appendResponse(nil, tagged)
	buf := make([]byte, 0, 512)
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"appendGet", 0, func() { appendGet(buf[:0], "/photos", host) }},
		{"appendResponse", 0, func() { appendResponse(buf[:0], plain) }},
		{"appendResponse+header", 0, func() { appendResponse(buf[:0], tagged) }},
		{"parseRequest", 4, func() { parseRequest(reqWire) }},
		{"parseResponse", 4, func() { parseResponse(respWire) }},
	} {
		if n := testing.AllocsPerRun(200, c.fn); n > c.max {
			t.Errorf("%s: %.0f allocs, want <= %.0f", c.name, n, c.max)
		}
	}
}

// TestHTTPGetParsesHeadOnce feeds a 64 KiB response to a fetch one
// segment at a time: the head is parsed when its blank line arrives and
// never again, so every later segment costs a length check.
func TestHTTPGetParsesHeadOnce(t *testing.T) {
	body := make([]byte, 64*1024)
	for i := range body {
		body[i] = byte(i * 7)
	}
	wire := appendResponse(nil, &HTTPResponse{Status: 200, Header: "X-Queue-Item: 1", Body: body})
	var g httpGet
	var head *byte // the parsed header block's bytes: a second parse cuts new ones
	for off := 0; off < len(wire); off += DefaultMSS {
		seg := wire[off:min(off+DefaultMSS, len(wire))]
		g.buf = append(g.buf, seg...)
		done := g.whole()
		if last := off+DefaultMSS >= len(wire); done != last {
			t.Fatalf("whole() = %v at offset %d of %d", done, off, len(wire))
		}
		if off == 0 {
			if head = unsafe.StringData(string(g.resp.Header)); head == nil || g.want != len(body) || g.bodyAt != len(wire)-len(body) {
				t.Fatalf("after the first segment: resp=%+v want=%d bodyAt=%d", g.resp, g.want, g.bodyAt)
			}
		}
		if unsafe.StringData(string(g.resp.Header)) != head {
			t.Fatalf("offset %d: head parsed again", off)
		}
	}
	if !bytes.Equal(g.resp.Body, body) || g.resp.Header.Get("x-queue-item") != "1" {
		t.Fatal("body or header came back wrong")
	}
}

func TestHTTPBulkGet(t *testing.T) {
	eng, a, b, _ := twoHosts(31)
	body := make([]byte, 64*1024)
	for i := range body {
		body[i] = byte(i * 7)
	}
	if _, err := b.ServeHTTP(80, func(*HTTPRequest) *HTTPResponse {
		return &HTTPResponse{Status: 200, Header: "X-Queue-Item: 1", Body: body}
	}); err != nil {
		t.Fatal(err)
	}
	var got *HTTPResponse
	a.HTTPGet(b.IP, 80, "/", 10*time.Second, func(r *HTTPResponse, _ sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = r
	})
	eng.Run()
	if got == nil || got.Status != 200 || !bytes.Equal(got.Body, body) || got.Header.Get("X-Queue-Item") != "1" {
		t.Fatalf("bulk GET came back wrong: %+v", got)
	}
}

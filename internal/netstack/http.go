package netstack

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

	"jitsu/internal/sim"
)

// A minimal HTTP/1.0 implementation over the stack's TCP: enough for the
// paper's workloads (static sites, the persistent-queue service) with
// close-delimited or Content-Length bodies. A head is found with one
// scan and kept as one string; a message is rendered into one buffer.

// Header is a message's header block as it travels: "Name: value" lines
// joined by CRLF, with none after the last. A handler that sets several
// writes them in the order it wants them sent.
type Header string

// Get returns the value of the header called name, compared without
// regard to case and with surrounding blanks trimmed; the last line
// wins, and "" means there is none (or an empty one).
func (h Header) Get(name string) (value string) {
	for rest := string(h); rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\r\n")
		if k, v, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(k), name) {
			value = strings.TrimSpace(v)
		}
	}
	return value
}

// HTTPRequest is a parsed request.
type HTTPRequest struct {
	Method string
	Path   string
	Header Header
}

// HTTPResponse is what a handler returns (or a client receives).
type HTTPResponse struct {
	Status int
	Header Header
	Body   []byte
}

// HTTPHandler serves one request. The server renders the response it
// returns before the call that asked for it returns, and keeps no
// reference to it, so a handler may return the same *HTTPResponse every
// time (nil answers 500).
type HTTPHandler func(req *HTTPRequest) *HTTPResponse

// HTTPServer accepts connections and answers one request per connection
// (HTTP/1.0 style, connection: close).
type HTTPServer struct {
	host    *Host
	handler HTTPHandler
	// Served counts completed responses.
	Served uint64
	// ResponseDelay charges app-level work (e.g. disk reads) before the
	// response goes out; nil means instantaneous.
	ResponseDelay func(req *HTTPRequest) sim.Duration
}

// ServeHTTP starts a server on port.
func (h *Host) ServeHTTP(port uint16, handler HTTPHandler) (*HTTPServer, error) {
	srv := &HTTPServer{host: h, handler: handler}
	if _, err := h.ListenTCP(port, srv.accept); err != nil {
		return nil, err
	}
	return srv, nil
}

func (s *HTTPServer) accept(c *TCPConn) { c.Attach(&httpServerConn{srv: s, conn: c}) }

// httpServerConn is one accepted connection's application until its
// request head is complete: then it hands the connection to hangUp, so
// the rest is ignored and neither it nor the request outlives the
// answer — the connection waits out TIME_WAIT holding nothing.
type httpServerConn struct {
	srv  *HTTPServer
	conn *TCPConn
	buf  []byte // what arrived before the head was complete
	req  HTTPRequest
}

func (sc *httpServerConn) Data(b []byte) {
	if sc.buf != nil {
		b = append(sc.buf, b...)
	}
	var ok bool
	if sc.req, ok = parseRequest(b); !ok {
		sc.buf = b // ours to keep till the head is whole, never to write: a view of the frame
		return     // need more bytes
	}
	sc.buf = nil
	sc.conn.Attach(hangUp{})
	if delay := sc.srv.ResponseDelay; delay != nil {
		sc.srv.host.Eng.AfterHandler(delay(&sc.req), sc)
	} else {
		sc.Fire()
	}
}

func (sc *httpServerConn) Closed(error) {}

// Fire answers the request: at once, or as ResponseDelay's event.
func (sc *httpServerConn) Fire() {
	resp := sc.srv.handler(&sc.req)
	if resp == nil {
		resp = &HTTPResponse{Status: 500}
	}
	sc.conn.write(func(b []byte) []byte { return appendResponse(b, resp) })
	sc.conn.Close()
	sc.srv.Served++
}

// hangUp is the application of a connection whose own is done: it
// drops whatever still arrives and holds nothing.
type hangUp struct{}

func (hangUp) Data([]byte)  {}
func (hangUp) Closed(error) {}

// AcceptImported serves a request on a connection handed off from the
// Synjitsu proxy: buffered bytes already queued replay on Attach.
func (s *HTTPServer) AcceptImported(c *TCPConn) { s.accept(c) }

var crlfcrlf = []byte("\r\n\r\n")

// cutHead returns buf's head (start line and header block) as a string
// and the offset at which the body starts; ok is false until the blank
// line has arrived.
func cutHead(buf []byte) (line string, header Header, bodyAt int, ok bool) {
	idx := bytes.Index(buf, crlfcrlf)
	if idx < 0 {
		return "", "", 0, false
	}
	line, rest, _ := strings.Cut(string(buf[:idx]), "\r\n")
	return line, Header(rest), idx + len(crlfcrlf), true
}

// cutField returns s's first blank-separated field and what follows it.
func cutField(s string) (field, rest string) {
	const blanks = " \t\n\v\f\r"
	s = strings.TrimLeft(s, blanks)
	if i := strings.IndexAny(s, blanks); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// parseRequest parses a complete request (headers terminated by CRLFCRLF).
func parseRequest(buf []byte) (HTTPRequest, bool) {
	line, header, _, ok := cutHead(buf)
	if !ok {
		return HTTPRequest{}, false
	}
	method, line := cutField(line)
	path, line := cutField(line)
	if proto, _ := cutField(line); proto == "" {
		return HTTPRequest{}, false
	}
	return HTTPRequest{Method: method, Path: path, Header: header}, true
}

// appendGet renders a GET of path from host onto b, growing it once.
func appendGet(b []byte, path string, host IP) []byte {
	const get, proto, agent = "GET ", " HTTP/1.0\r\nHost: ", "\r\nUser-Agent: jitsu-sim\r\n\r\n"
	b = slices.Grow(b, len(get)+len(path)+len(proto)+len("255.255.255.255")+len(agent))
	b = append(append(b, get...), path...)
	b = host.appendTo(append(b, proto...))
	return append(b, agent...)
}

// appendResponse renders r, with its Content-Length, onto b, growing it
// once.
func appendResponse(b []byte, r *HTTPResponse) []byte {
	const proto, length = "HTTP/1.0 ", "Content-Length: "
	text := statusText(r.Status)
	// 20 digits hold any int64; two numbers, four CRLFs, two blanks.
	b = slices.Grow(b, len(proto)+len(text)+len(r.Header)+len(length)+2*20+4*2+2+len(r.Body))
	b = append(b, proto...)
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(b, ' ')
	b = append(b, text...)
	b = append(b, "\r\n"...)
	if r.Header != "" {
		b = append(b, r.Header...)
		b = append(b, "\r\n"...)
	}
	b = append(b, length...)
	b = strconv.AppendInt(b, int64(len(r.Body)), 10)
	b = append(b, crlfcrlf...)
	return append(b, r.Body...)
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 404:
		return "Not Found"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// parseResponseHead parses a response's head once it is complete. want is
// the Content-Length, or -1 when the response carries none; ok is false
// while the blank line is missing and for a head that is malformed.
func parseResponseHead(buf []byte) (r HTTPResponse, bodyAt, want int, ok bool) {
	line, header, bodyAt, ok := cutHead(buf)
	if !ok {
		return HTTPResponse{}, 0, 0, false
	}
	_, line = cutField(line)
	code, _ := cutField(line)
	status, err := strconv.Atoi(code)
	if err != nil {
		return HTTPResponse{}, 0, 0, false
	}
	want = -1
	if cl := header.Get("content-length"); cl != "" {
		if want, err = strconv.Atoi(cl); err != nil || want < 0 {
			return HTTPResponse{}, 0, 0, false
		}
	}
	return HTTPResponse{Status: status, Header: header}, bodyAt, want, true
}

// HTTPGet fetches path from dst:port. done fires with the response or an
// error; the measurement clock starts at the call (Figure 9's metric is
// time from request to complete response).
func (h *Host) HTTPGet(dst IP, port uint16, path string, timeout sim.Duration, done func(*HTTPResponse, sim.Duration, error)) {
	g := &httpGet{host: h, start: h.Eng.Now(), done: done}
	if timeout > 0 {
		g.deadline = h.Eng.AfterHandler(timeout, g)
	}
	// The request is queued at the dial and goes out once the handshake
	// is done; a dial that fails reaches g as Closed.
	g.conn = h.DialTCP(dst, port, nil)
	g.conn.Attach(g)
	g.conn.write(func(b []byte) []byte { return appendGet(b, path, dst) })
}

// httpGet is one HTTPGet in flight: its connection's application, its
// deadline's event and the storage of the response it hands the caller.
// The connection outlives it by the whole of TIME_WAIT, so finish hands
// the connection to hangUp: then nothing but the caller holds the fetch.
type httpGet struct {
	host     *Host
	conn     *TCPConn
	start    sim.Duration
	deadline sim.Event
	buf      []byte
	done     func(*HTTPResponse, sim.Duration, error) // nil once finished
	// The head is parsed once, when its blank line arrives (bodyAt > 0
	// from then on); after that a segment is a length check against
	// bodyAt+want.
	resp   HTTPResponse
	bodyAt int
	want   int // Content-Length, or -1: whatever has arrived is the body
}

func (g *httpGet) finish(r *HTTPResponse, err error) {
	done := g.done
	if done == nil {
		return
	}
	g.done, g.buf = nil, nil
	g.conn.Attach(hangUp{})
	done(r, g.host.Eng.Now()-g.start, err)
}

// Fire is the deadline.
func (g *httpGet) Fire() { g.finish(nil, ErrTimeout) }

// whole reports whether buf holds a whole response, and if so points
// resp.Body at its body. buf is let go with the fetch; the body is the
// caller's to keep and never to write — a response that came in one
// segment is still a view of its frame.
func (g *httpGet) whole() bool {
	if g.bodyAt == 0 {
		var ok bool
		if g.resp, g.bodyAt, g.want, ok = parseResponseHead(g.buf); !ok {
			return false
		}
	}
	body := g.buf[g.bodyAt:]
	if g.want >= 0 {
		if len(body) < g.want {
			return false
		}
		body = body[:g.want:g.want]
	}
	g.resp.Body = body
	return true
}

// tryComplete finishes the fetch if buf holds a whole response, and then
// closes our side.
func (g *httpGet) tryComplete() bool {
	if !g.whole() {
		return false
	}
	g.host.Eng.Cancel(g.deadline)
	g.finish(&g.resp, nil)
	g.conn.Close()
	return true
}

func (g *httpGet) Data(b []byte) {
	if g.buf == nil {
		g.buf = b // ours to keep till the response is whole, never to write: a view of the frame
	} else {
		g.buf = append(g.buf, b...)
	}
	g.tryComplete()
}

func (g *httpGet) Closed(err error) {
	if g.tryComplete() {
		return
	}
	if err == nil {
		err = ErrConnClosed
	}
	g.finish(nil, err)
}

package netstack

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"jitsu/internal/sim"
)

// A minimal HTTP/1.0 implementation over the stack's TCP: enough for the
// paper's workloads (static sites, the persistent-queue service) with
// close-delimited or Content-Length bodies.

// HTTPRequest is a parsed request.
type HTTPRequest struct {
	Method string
	Path   string
	Header map[string]string
}

// HTTPResponse is what a handler returns (or a client receives).
type HTTPResponse struct {
	Status int
	Header map[string]string
	Body   []byte
}

// HTTPHandler serves one request.
type HTTPHandler func(req *HTTPRequest) *HTTPResponse

// HTTPServer accepts connections and answers one request per connection
// (HTTP/1.0 style, connection: close).
type HTTPServer struct {
	host     *Host
	listener *TCPListener
	handler  HTTPHandler
	// Served counts completed responses.
	Served uint64
	// ResponseDelay charges app-level work (e.g. disk reads) before the
	// response goes out; nil means instantaneous.
	ResponseDelay func(req *HTTPRequest) sim.Duration
}

// ServeHTTP starts a server on port.
func (h *Host) ServeHTTP(port uint16, handler HTTPHandler) (*HTTPServer, error) {
	srv := &HTTPServer{host: h, handler: handler}
	l, err := h.ListenTCP(port, srv.accept)
	if err != nil {
		return nil, err
	}
	srv.listener = l
	return srv, nil
}

// Close stops accepting.
func (s *HTTPServer) Close() { s.listener.Close() }

func (s *HTTPServer) accept(c *TCPConn) {
	var buf []byte
	responded := false
	c.OnData(func(b []byte) {
		if responded {
			return
		}
		buf = append(buf, b...)
		req, ok := parseRequest(buf)
		if !ok {
			return // need more bytes
		}
		responded = true
		reply := func() {
			resp := s.handler(req)
			if resp == nil {
				resp = &HTTPResponse{Status: 500}
			}
			c.Send(EncodeResponse(resp))
			c.Close()
			s.Served++
		}
		if s.ResponseDelay != nil {
			s.host.Eng.After(s.ResponseDelay(req), reply)
		} else {
			reply()
		}
	})
	c.OnClose(func(error) {})
}

// AcceptImported serves a request on a connection handed off from the
// Synjitsu proxy: buffered bytes already queued replay through OnData.
func (s *HTTPServer) AcceptImported(c *TCPConn) { s.accept(c) }

// parseRequest parses a complete request (headers terminated by CRLFCRLF).
func parseRequest(buf []byte) (*HTTPRequest, bool) {
	idx := strings.Index(string(buf), "\r\n\r\n")
	if idx < 0 {
		return nil, false
	}
	lines := strings.Split(string(buf[:idx]), "\r\n")
	parts := strings.Fields(lines[0])
	if len(parts) < 3 {
		return nil, false
	}
	req := &HTTPRequest{Method: parts[0], Path: parts[1], Header: map[string]string{}}
	for _, ln := range lines[1:] {
		if k, v, ok := strings.Cut(ln, ":"); ok {
			req.Header[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	return req, true
}

// EncodeRequest renders a GET request.
func EncodeRequest(method, path, host string) []byte {
	return []byte(fmt.Sprintf("%s %s HTTP/1.0\r\nHost: %s\r\nUser-Agent: jitsu-sim\r\n\r\n", method, path, host))
}

// EncodeResponse renders a response with Content-Length.
func EncodeResponse(r *HTTPResponse) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.0 %d %s\r\n", r.Status, statusText(r.Status))
	keys := make([]string, 0, len(r.Header))
	for k := range r.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Header[k])
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(r.Body))
	return append([]byte(b.String()), r.Body...)
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

// ParseResponse parses a full response buffer.
func ParseResponse(buf []byte) (*HTTPResponse, bool) {
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
	resp := &HTTPResponse{Status: status, Header: map[string]string{}}
	for _, ln := range lines[1:] {
		if k, v, ok := strings.Cut(ln, ":"); ok {
			resp.Header[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	if cl, ok := resp.Header["content-length"]; ok {
		n, err := strconv.Atoi(cl)
		if err != nil || len(body) < n {
			return nil, false
		}
		resp.Body = append([]byte(nil), body[:n]...)
		return resp, true
	}
	resp.Body = append([]byte(nil), body...)
	return resp, true
}

// HTTPGet fetches path from dst:port. done fires with the response or an
// error; the measurement clock starts at the call (Figure 9's metric is
// time from request to complete response).
func (h *Host) HTTPGet(dst IP, port uint16, path string, timeout sim.Duration, done func(*HTTPResponse, sim.Duration, error)) {
	g := &httpGet{host: h, start: h.Eng.Now(), done: done}
	if timeout > 0 {
		g.deadline = h.Eng.After(timeout, g.onDeadline)
	}
	h.DialTCP(dst, port, func(c *TCPConn, err error) {
		if err != nil {
			g.finish(nil, err)
			return
		}
		g.conn = c
		c.OnData(g.onData)
		c.OnClose(g.onClose)
		c.Send(EncodeRequest("GET", path, dst.String()))
	})
}

// httpGet is one HTTPGet in flight. Its connection outlives it by the
// whole of TIME_WAIT and still points here through OnClose, so finish
// lets go of the response bytes and of the caller.
type httpGet struct {
	host     *Host
	conn     *TCPConn
	start    sim.Duration
	deadline sim.Event
	buf      []byte
	done     func(*HTTPResponse, sim.Duration, error) // nil once finished
}

func (g *httpGet) finish(r *HTTPResponse, err error) {
	done := g.done
	if done == nil {
		return
	}
	g.done, g.buf = nil, nil
	done(r, g.host.Eng.Now()-g.start, err)
}

func (g *httpGet) onDeadline() { g.finish(nil, ErrTimeout) }

// tryComplete finishes the fetch if buf holds a whole response, and then
// closes our side.
func (g *httpGet) tryComplete() bool {
	resp, ok := ParseResponse(g.buf)
	if !ok {
		return false
	}
	g.host.Eng.Cancel(g.deadline)
	g.finish(resp, nil)
	g.conn.Close()
	return true
}

func (g *httpGet) onData(b []byte) {
	if g.done == nil {
		return
	}
	g.buf = append(g.buf, b...)
	g.tryComplete()
}

func (g *httpGet) onClose(err error) {
	if g.done == nil || g.tryComplete() {
		return
	}
	if err == nil {
		err = ErrConnClosed
	}
	g.finish(nil, err)
}

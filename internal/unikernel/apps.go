package unikernel

import (
	"fmt"
	"strconv"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// StaticSiteApp is the canonical Jitsu workload: a tiny HTTP appliance
// serving one person's pages (§3.3.2's alice.family.name).
type StaticSiteApp struct {
	Pages map[string][]byte
	// Server is exposed for Synjitsu handoff (AcceptImported).
	Server *netstack.HTTPServer
	// resp is every answer: the server renders it before the next request.
	resp netstack.HTTPResponse
}

// NewStaticSiteApp builds a site with an index page.
func NewStaticSiteApp(owner string) *StaticSiteApp {
	return &StaticSiteApp{Pages: map[string][]byte{
		"/": []byte(fmt.Sprintf("<html><body>%s's homepage, served by a unikernel</body></html>", owner)),
	}}
}

// Start implements App.
func (a *StaticSiteApp) Start(g *Guest, ready func()) error {
	srv, err := g.Stack.ServeHTTP(80, func(req *netstack.HTTPRequest) *netstack.HTTPResponse {
		if body, ok := a.Pages[req.Path]; ok {
			a.resp = netstack.HTTPResponse{Status: 200, Body: body}
		} else {
			a.resp = netstack.HTTPResponse{Status: 404, Body: []byte("not found")}
		}
		return &a.resp
	})
	if err != nil {
		return err
	}
	a.Server = srv
	ready()
	return nil
}

// AcceptImported serves a request on a Synjitsu-handed-off connection.
func (a *StaticSiteApp) AcceptImported(c *netstack.TCPConn) {
	if a.Server != nil {
		a.Server.AcceptImported(c)
	}
}

// QueueServiceApp reproduces the §4 throughput workload: "a HTTP
// persistent queue service ... The working set of this service is larger
// than available RAM, and so it is served from disk. ... it served HTTP
// traffic at a rate of 57.92Mb/s, at which point it becomes disk bound."
type QueueServiceApp struct {
	// DiskMbps bounds the response-generation rate.
	DiskMbps float64
	// ItemBytes is the size of one queue item.
	ItemBytes int
	Server    *netstack.HTTPServer
	served    int
}

// NewQueueServiceApp uses the paper's disk rate.
func NewQueueServiceApp() *QueueServiceApp {
	return &QueueServiceApp{DiskMbps: 57.92, ItemBytes: 64 * 1024}
}

// Start implements App.
func (a *QueueServiceApp) Start(g *Guest, ready func()) error {
	srv, err := g.Stack.ServeHTTP(80, func(req *netstack.HTTPRequest) *netstack.HTTPResponse {
		a.served++
		body := make([]byte, a.ItemBytes)
		for i := range body {
			body[i] = byte(a.served + i)
		}
		return &netstack.HTTPResponse{Status: 200,
			Header: netstack.Header("X-Queue-Item: " + strconv.Itoa(a.served)), Body: body}
	})
	if err != nil {
		return err
	}
	// Disk-bound: each response waits for the disk to stream the item.
	srv.ResponseDelay = func(*netstack.HTTPRequest) sim.Duration {
		bits := float64(a.ItemBytes * 8)
		return sim.Duration(bits / (a.DiskMbps * 1e6) * float64(time.Second))
	}
	a.Server = srv
	ready()
	return nil
}

// AcceptImported serves a request on a Synjitsu-handed-off connection.
func (a *QueueServiceApp) AcceptImported(c *netstack.TCPConn) {
	if a.Server != nil {
		a.Server.AcceptImported(c)
	}
}

// EchoApp is a TCP echo service for plumbing tests.
type EchoApp struct{ Port uint16 }

// Start implements App.
func (a *EchoApp) Start(g *Guest, ready func()) error {
	port := a.Port
	if port == 0 {
		port = 7
	}
	if _, err := g.Stack.ListenTCP(port, func(c *netstack.TCPConn) {
		c.OnData(func(b []byte) { c.Send(b) })
	}); err != nil {
		return err
	}
	ready()
	return nil
}

// AcceptImported echoes on a handed-off connection.
func (a *EchoApp) AcceptImported(c *netstack.TCPConn) {
	c.OnData(func(b []byte) { c.Send(b) })
}

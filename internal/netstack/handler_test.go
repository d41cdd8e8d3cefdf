package netstack

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"jitsu/internal/sim"
)

// connLog is an application that writes down what it hears, and when.
type connLog struct {
	eng    *sim.Engine
	events []string
}

func (l *connLog) Data(b []byte)    { l.add("data " + string(b)) }
func (l *connLog) Closed(err error) { l.add(fmt.Sprint("closed ", err)) }

// testApp is an application made of two funcs, either of which may be
// nil.
type testApp struct {
	data   func([]byte)
	closed func(error)
}

func (a testApp) Data(b []byte) {
	if a.data != nil {
		a.data(b)
	}
}

func (a testApp) Closed(err error) {
	if a.closed != nil {
		a.closed(err)
	}
}

func (l *connLog) add(ev string) { l.events = append(l.events, fmt.Sprint(l.eng.Now(), " ", ev)) }

// kinds is the log without its times.
func (l *connLog) kinds() []string {
	out := make([]string, len(l.events))
	for i, ev := range l.events {
		_, out[i], _ = strings.Cut(ev, " ")
	}
	return out
}

// TestConnHandlerMatchesFuncs drives every way a connection ends with
// its application attached as a ConnHandler, which must hear the
// expected Data and Closed calls, and again with an OnData callback,
// which must hear the same Data calls at the same virtual instants.
func TestConnHandlerMatchesFuncs(t *testing.T) {
	installs := []struct {
		name   string
		attach func(*TCPConn, *connLog)
	}{
		{"ConnHandler", func(c *TCPConn, l *connLog) { c.Attach(l) }},
		{"OnData", func(c *TCPConn, l *connLog) { c.OnData(l.Data) }},
	}
	// Each row builds its world, hands attach the connection it watches
	// at the moment an application would take it, and runs to the end.
	rows := []struct {
		name string
		run  func(t *testing.T, attach func(*TCPConn))
		want []string
	}{
		{"remote FIN first", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(1)
			b.ListenTCP(80, func(c *TCPConn) { c.Send([]byte("hello")); c.Close() })
			var client *TCPConn
			a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { client = c; attach(c) })
			eng.RunFor(time.Second)
			client.Close() // from CLOSE_WAIT: LAST_ACK, then closed with nothing more to say
			eng.Run()
		}, []string{"data hello", "closed <nil>"}},
		{"local close first", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(2)
			b.ListenTCP(80, func(c *TCPConn) { c.Attach(testApp{closed: func(error) { c.Close() }}) })
			a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { attach(c); c.Send([]byte("ping")); c.Close() })
			eng.Run()
		}, []string{"closed <nil>"}},
		{"RST", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(3)
			b.ListenTCP(80, func(c *TCPConn) { b.Eng.After(time.Millisecond, c.Abort) })
			a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { attach(c) })
			eng.Run()
		}, []string{"closed " + ErrConnReset.Error()}},
		{"retransmit give-up", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(4)
			b.ListenTCP(80, func(c *TCPConn) { c.OnData(func([]byte) {}) })
			a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
				attach(c)
				a.NIC.Down = true
				c.Send([]byte("lost"))
			})
			eng.Run()
		}, []string{"closed " + ErrTimeout.Error()}},
		{"dial refused", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(5)
			attach(a.DialTCP(b.IP, 81, nil))
			eng.Run()
		}, []string{"closed " + ErrConnReset.Error()}},
		{"dial with no ephemeral port", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(6)
			a.portUse = make(map[uint16]int) // every port held
			for p := ephemeralBase; p < 1<<16; p++ {
				a.portUse[uint16(p)] = 1
			}
			attach(a.DialTCP(b.IP, 80, nil))
			eng.Run()
		}, []string{"closed " + ErrNoEphemeralPorts.Error()}},
		{"ImportTCB with parked data, then accept", func(t *testing.T, attach func(*TCPConn)) {
			eng, a, b, _ := twoHosts(7)
			var proxied *TCPConn
			b.ListenTCP(80, func(c *TCPConn) { proxied = c }) // takes no data: it parks
			var client *TCPConn
			a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { client = c; c.Send([]byte("GET /")) })
			eng.RunFor(100 * time.Millisecond)
			tcb, err := proxied.ExportTCB()
			if err != nil {
				t.Fatal(err)
			}
			proxied.Forget()
			imported, err := b.ImportTCB(tcb)
			if err != nil {
				t.Fatal(err)
			}
			attach(imported) // what AcceptImported does
			client.Close()
			eng.Run()
		}, []string{"data GET /", "closed <nil>"}},
		{"TIME_WAIT expiry", func(t *testing.T, attach func(*TCPConn)) {
			// The client sends and shuts its side; the answer still reaches
			// it in FIN_WAIT, then the server's FIN, and 2*MSL later the end.
			eng, a, b, _ := twoHosts(8)
			b.ListenTCP(80, func(c *TCPConn) { c.OnData(func([]byte) { c.Send([]byte("200")); c.Close() }) })
			var client *TCPConn
			a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { client = c; attach(c); c.Send([]byte("GET")); c.Close() })
			eng.RunFor(time.Second)
			if client.state != StateTimeWait {
				t.Fatalf("client in %v, want TIME_WAIT", client.state)
			}
			eng.Run()
		}, []string{"data 200", "closed <nil>"}},
		{"send and close while dialling", func(t *testing.T, attach func(*TCPConn)) {
			// The data and the FIN wait out the handshake; the server
			// echoes and closes its side, and the client ends in TIME_WAIT.
			eng, a, b, _ := twoHosts(10)
			b.ListenTCP(80, func(c *TCPConn) {
				c.Attach(testApp{data: func(p []byte) { c.Send(p) }, closed: func(error) { c.Close() }})
			})
			c := a.DialTCP(b.IP, 80, nil)
			attach(c)
			if err := c.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			c.Close()
			eng.RunFor(time.Second)
			if c.state != StateTimeWait { // the active closer
				t.Fatalf("client in %v, want TIME_WAIT", c.state)
			}
			eng.Run()
		}, []string{"data ping", "closed <nil>"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var logs [2]connLog
			for i, in := range installs {
				l := &logs[i]
				row.run(t, func(c *TCPConn) { l.eng = c.host.Eng; in.attach(c, l) })
			}
			data := slices.DeleteFunc(slices.Clone(logs[0].events), func(ev string) bool { return strings.Contains(ev, " closed ") })
			if !slices.Equal(data, logs[1].events) {
				t.Errorf("%s heard %q, %s heard %q", installs[0].name, logs[0].events, installs[1].name, logs[1].events)
			}
			if got := logs[0].kinds(); !slices.Equal(got, row.want) {
				t.Errorf("heard %q, want %q", logs[0].events, row.want)
			}
		})
	}
}

// TestParkedDataIsDeliveredOnce: the first application to take a
// connection's parked data has it; one attached later hears only what
// arrives after, and nothing is left to export.
func TestParkedDataIsDeliveredOnce(t *testing.T) {
	eng, a, b, _ := twoHosts(9)
	var server, client *TCPConn
	b.ListenTCP(80, func(c *TCPConn) { server = c })
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { client = c; c.Send([]byte("early")) })
	eng.RunFor(100 * time.Millisecond)
	first, second := &connLog{eng: eng}, &connLog{eng: eng}
	server.OnData(first.Data)
	server.Attach(second)
	client.Send([]byte("late"))
	eng.RunFor(100 * time.Millisecond)
	if f, s := first.kinds(), second.kinds(); !slices.Equal(f, []string{"data early"}) || !slices.Equal(s, []string{"data late"}) {
		t.Errorf("OnData heard %q, then Attach %q; want [data early] and [data late]", f, s)
	}
	if tcb, err := server.ExportTCB(); err != nil || len(tcb.Buffered) != 0 {
		t.Errorf("export after delivery: %v, %q still buffered", err, tcb.Buffered)
	}
}

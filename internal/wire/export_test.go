package wire

// Abort kills the transport abruptly — no watch cancels, no FIN — the
// operator console that vanishes mid-stream, for the external tests:
// server-side reclamation must then ride the connection-teardown path
// instead of TWatchCancel frames. Nothing in the system drops a session
// this way, so it lives here.
func (c *Client) Abort() {
	if c.conn != nil && !c.closed {
		c.conn.Abort()
	}
	c.closed = true
	clear(c.pending)
}

package cluster

import "jitsu/internal/wire"

// WireConfig is the session policy operators authenticate against.
type WireConfig = wire.ServerConfig

// ServeWire exposes the cluster's control plane on board 0's management
// host at wire.DefaultPort: every api verb becomes reachable over the
// simulated management network, gated by the configured capability
// policy. Multiple operator sessions may be live at once; each gets its
// own event stream.
func (c *Cluster) ServeWire(cfg WireConfig) (*wire.Server, error) {
	return wire.Serve(c.MgmtHost(0), c.API(), cfg)
}

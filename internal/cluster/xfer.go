package cluster

import (
	"strconv"

	"jitsu/internal/cc"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Checkpoint transfer: the migration pre-copy is a real windowed
// datagram exchange on the management network (port 7947), run by the
// one chunk sender both bulk movers share (cc.Sender); this file is the
// cluster's side of it — which controller, config values, socket and
// counters. Each chunk datagram carries only a header but occupies the
// shared management link for the chunk's full byte count
// (netstack.SendUDPBulk), so gossip probes and anything else on the
// same uplink queue behind the copy exactly as they would behind the
// real burst. A management-link partition exhausts a chunk's retries
// and fails the transfer, which the migration layer answers with abort
// — and, for mandatory evacuations, a bounded reschedule.
const (
	xferPort = 7947

	xferOpChunk = 1 // sender -> receiver
	xferOpAck   = 2 // receiver -> sender
)

// uplinkCC builds the congestion controller pacing one management
// uplink for chunkMiB chunks, its RTO clamped to [rto, 64×rto], and
// registers its live window/RTT state under prefix.
func uplinkCC(eng *sim.Engine, reg *obs.Registry, prefix string, chunkMiB int, rto sim.Duration) *cc.Controller {
	ctrl := cc.New(eng, cc.Config{MSS: chunkMiB << 20, RTOMin: rto, InitRTO: rto, RTOMax: 64 * rto})
	ctrl.Register(reg, prefix)
	return ctrl
}

// ccFor returns (building on first use) the controller pacing board
// id's management uplink — cc.b<id>.* in the cluster registry — or nil
// when the unpaced ablation is configured.
func (c *Cluster) ccFor(id int) *cc.Controller {
	a := c.members[id].agent
	if a.ctrl == nil && !c.Cfg.UnpacedTransfers {
		a.ctrl = uplinkCC(c.eng, c.Reg, "cc.b"+strconv.Itoa(id), c.Cfg.MigrateChunkMiB, c.Cfg.MigrateChunkRTO)
	}
	return a.ctrl
}

// copyCheckpoint streams stateMiB from board src to board dst over the
// management network and reports success.
func (c *Cluster) copyCheckpoint(src, dst int, stateMiB int, done func(ok bool)) {
	c.nextXferID++
	id := c.nextXferID
	a := c.members[src].agent
	a.xfers[id] = cc.Send(c.eng, c.ccFor(src), cc.Transfer{
		ID: id, StateMiB: stateMiB, ChunkMiB: c.Cfg.MigrateChunkMiB,
		RTO: c.Cfg.MigrateChunkRTO, Retries: c.Cfg.MigrateChunkRetries,
		BitsPerSec: c.Cfg.MigrateBitsPerSec, OpChunk: xferOpChunk,
		Send: func(hdr []byte, wireBytes int) {
			a.host.SendUDPBulk(mgmtIP(dst), xferPort, xferPort, hdr, wireBytes)
		},
		Chunks: &c.Chunks, Retx: &c.ChunkRetx, Aborts: &c.XferAborts,
		OnRetx:  func(idx int) { c.traceXfer(src, "chunk-retx", id, idx) },
		OnAbort: func(acked int) { c.traceXfer(src, "xfer-abort", id, acked) },
		Done: func(ok bool) {
			delete(a.xfers, id)
			done(ok)
		},
	})
}

func (c *Cluster) traceXfer(src int, name string, id uint32, chunk int) {
	if tr := c.tracer(); tr != nil {
		tr.Instant(c.tidFor(src), "migrate", name,
			obs.Num("xfer", int64(id)), obs.Num("chunk", int64(chunk)))
	}
}

// recvXfer handles transfer datagrams on one agent: chunks are
// acknowledged, acks retire their chunk on the sender this agent runs.
func (a *agent) recvXfer(src netstack.IP, _ uint16, payload []byte) {
	op, id, idx, ok := cc.ParseHeader(payload)
	if !ok {
		return
	}
	switch op {
	case xferOpChunk:
		a.host.SendUDP(src, xferPort, xferPort, cc.AckHeader(xferOpAck, id, idx))
	case xferOpAck:
		if s := a.xfers[id]; s != nil {
			s.OnAck(idx)
		}
	}
}

package cluster

import (
	"strconv"
	"time"

	"jitsu/internal/cc"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Checkpoint transfer: a migration pre-copy between boards and a
// federation shed/spill copy between member agents are the same
// windowed datagram exchange, run by one copier over the one chunk
// sender (cc.Sender); only the network, port and opcodes differ. Each
// chunk datagram carries only a header but occupies the shared
// management link for the chunk's full byte count
// (netstack.SendUDPBulk), so gossip probes, delegated resolves and
// summary pushes on the same uplink queue behind the copy exactly as
// they would behind the real burst. A partition exhausts a chunk's
// retries and fails the transfer: the migration layer answers with
// abort — and, for mandatory evacuations, a bounded reschedule — and
// a federation source keeps serving.
const (
	xferPort = 7947

	xferOpChunk = 1 // sender -> receiver; the ack is xferOpChunk+1

	// chunkRTO is the per-chunk retransmit floor (the controller's RTO
	// is clamped to [chunkRTO, 64×chunkRTO]); chunkRetries bounds the
	// retransmissions of one chunk before the transfer aborts.
	chunkRTO     = 50 * time.Millisecond
	chunkRetries = 5
)

// copier is one management endpoint's side of the checkpoint copy: the
// host it sends from, the port and chunk opcode it speaks (op+1 is the
// ack), the controller pacing its uplink and the copies in flight from
// here, by id.
type copier struct {
	host  *netstack.Host
	port  uint16
	op    byte
	ctrl  *cc.Controller
	xfers map[uint32]*cc.Sender
}

func newCopier(host *netstack.Host, port uint16, op byte) copier {
	return copier{host: host, port: port, op: op, xfers: make(map[uint32]*cc.Sender)}
}

// pace builds, on first use, the controller pacing this uplink for
// chunkMiB chunks and registers its live window/RTT state under prefix;
// unpaced (the ablation) leaves it nil.
func (c *copier) pace(eng *sim.Engine, reg *obs.Registry, prefix string, chunkMiB int, unpaced bool) {
	if c.ctrl == nil && !unpaced {
		c.ctrl = cc.New(eng, cc.Config{MSS: chunkMiB << 20, RTOMin: chunkRTO, InitRTO: chunkRTO, RTOMax: 64 * chunkRTO})
		c.ctrl.Register(reg, prefix)
	}
}

// copy streams t to the copier at dst; t carries the caller's sizes,
// link rate, counters and hooks, the copier fills in the rest.
func (c *copier) copy(eng *sim.Engine, dst netstack.IP, t cc.Transfer) {
	t.RTO, t.Retries, t.OpChunk = chunkRTO, chunkRetries, c.op
	t.Send = func(hdr []byte, wireBytes int) {
		c.host.SendUDPBulk(dst, c.port, c.port, hdr, wireBytes)
	}
	id, done := t.ID, t.Done
	t.Done = func(ok bool) {
		delete(c.xfers, id)
		done(ok)
	}
	c.xfers[id] = cc.Send(eng, c.ctrl, t)
}

// recv handles one transfer datagram: chunks are acknowledged, acks
// retire their chunk on the sender this copier runs.
func (c *copier) recv(src netstack.IP, _ uint16, payload []byte) {
	op, id, idx, ok := cc.ParseHeader(payload)
	if !ok {
		return
	}
	switch op {
	case c.op:
		c.host.SendUDP(src, c.port, c.port, cc.AckHeader(c.op+1, id, idx))
	case c.op + 1:
		if s := c.xfers[id]; s != nil {
			s.OnAck(idx)
		}
	}
}

// copyCheckpoint streams stateMiB from board src to board dst over the
// management network and reports success.
func (c *Cluster) copyCheckpoint(src, dst int, stateMiB int, done func(ok bool)) {
	c.nextXferID++
	id := c.nextXferID
	a := c.members[src].agent
	a.pace(c.eng, c.Reg, "cc.b"+strconv.Itoa(src), c.Cfg.migrateChunkMiB, c.Cfg.unpacedTransfers)
	a.copy(c.eng, mgmtIP(dst), cc.Transfer{
		ID: id, StateMiB: stateMiB, ChunkMiB: c.Cfg.migrateChunkMiB, BitsPerSec: c.Cfg.mgmtBitsPerSec,
		Chunks: &c.Chunks, Retx: &c.ChunkRetx, Aborts: &c.XferAborts,
		OnRetx:  func(idx int) { c.traceXfer(src, "chunk-retx", id, idx) },
		OnAbort: func(acked int) { c.traceXfer(src, "xfer-abort", id, acked) },
		Done:    done,
	})
}

func (c *Cluster) traceXfer(src int, name string, id uint32, chunk int) {
	if tr := c.tracer(); tr != nil {
		tr.Instant(c.tidFor(src), "migrate", name,
			obs.Num("xfer", int64(id)), obs.Num("chunk", int64(chunk)))
	}
}

// xferLink is the link a cross-cluster copy paces against: the WAN
// profile's rate in 1 MiB chunks when one shapes the federation links,
// else the LAN's in 4 MiB chunks.
func (f *Federation) xferLink() (bitsPerSec float64, chunkMiB int) {
	if f.Cfg.wan != nil {
		return f.Cfg.wan.BitsPerSec, 1
	}
	return fedBitsPerSec, 4
}

// fedCopy streams stateMiB from this agent to cluster dst's agent over
// the federation management network and reports success.
func (a *fedAgent) fedCopy(dst int, stateMiB int, done func(ok bool)) {
	f := a.f
	f.nextFedXfer++
	id := f.nextFedXfer
	bits, chunkMiB := f.xferLink()
	a.pace(f.eng, f.Reg, "cc.c"+strconv.Itoa(a.m.ID), chunkMiB, a.m.Cluster.Cfg.unpacedTransfers)
	a.copy(f.eng, agentMgmtIP(dst), cc.Transfer{
		ID: id, StateMiB: stateMiB, ChunkMiB: chunkMiB, BitsPerSec: bits,
		Chunks: &f.FedChunks, Retx: &f.FedChunkRetx, Aborts: &f.FedXferAborts,
		OnAbort: func(acked int) {
			if tr := f.Cfg.tracer; tr != nil {
				tr.Instant(a.lane(), "fed", "xfer-abort",
					obs.Num("xfer", int64(id)), obs.Num("chunk", int64(acked)))
			}
		},
		Done: done,
	})
}

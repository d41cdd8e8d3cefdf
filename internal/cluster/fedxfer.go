package cluster

import (
	"strconv"

	"jitsu/internal/cc"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
)

// Federation checkpoint copies: the shed/spill transfer leg is the same
// windowed chunk exchange the migration path runs (xfer.go) — one
// cc.Sender — agent to agent over fedNet, so it contends with the
// root's delegated resolves and summary pushes that share those links.
// An exchange that exhausts a chunk's retries aborts the transfer and
// the source keeps serving.

// fedCC returns (building on first use) the controller pacing this
// agent's federation uplink — cc.c<id>.* in the federation registry —
// or nil when the member cluster runs the unpaced ablation.
func (a *fedAgent) fedCC() *cc.Controller {
	if a.ctrl == nil && !a.m.Cluster.Cfg.UnpacedTransfers {
		a.ctrl = uplinkCC(a.f.eng, a.f.Reg, "cc.c"+strconv.Itoa(a.m.ID), a.f.Cfg.TransferChunkMiB, transferChunkRTO)
	}
	return a.ctrl
}

// fedCopy streams stateMiB from this agent to cluster dst's agent over
// the federation management network and reports success.
func (a *fedAgent) fedCopy(dst int, stateMiB int, done func(ok bool)) {
	f := a.f
	f.nextFedXfer++
	id := f.nextFedXfer
	a.xfers[id] = cc.Send(f.eng, a.fedCC(), cc.Transfer{
		ID: id, StateMiB: stateMiB, ChunkMiB: f.Cfg.TransferChunkMiB,
		RTO: transferChunkRTO, Retries: transferChunkRetries,
		BitsPerSec: f.Cfg.TransferBitsPerSec, OpChunk: fedOpXferChunk,
		Send: func(hdr []byte, wireBytes int) {
			a.host.SendUDPBulk(agentMgmtIP(dst), fedPort, fedPort, hdr, wireBytes)
		},
		Chunks: &f.FedChunks, Retx: &f.FedChunkRetx, Aborts: &f.FedXferAborts,
		OnAbort: func(acked int) {
			if tr := f.Cfg.Tracer; tr != nil {
				tr.Instant(a.lane(), "fed", "xfer-abort",
					obs.Num("xfer", int64(id)), obs.Num("chunk", int64(acked)))
			}
		},
		Done: func(ok bool) {
			delete(a.xfers, id)
			done(ok)
		},
	})
}

// recvFedXfer handles transfer datagrams between agents: chunks are
// acknowledged, acks retire their chunk on the sender this agent runs.
func (a *fedAgent) recvFedXfer(src netstack.IP, payload []byte) {
	op, id, idx, ok := cc.ParseHeader(payload)
	if !ok {
		return
	}
	switch op {
	case fedOpXferChunk:
		a.host.SendUDP(src, fedPort, fedPort, cc.AckHeader(fedOpXferAck, id, idx))
	case fedOpXferAck:
		if s := a.xfers[id]; s != nil {
			s.OnAck(idx)
		}
	}
}

package cluster

import (
	"errors"
	"hash/fnv"
	"jitsu/internal/sim"
)

// The federation root never holds per-service rows — that is the flat
// directory bottleneck the MDS2 measurements document. Each member
// cluster instead pushes one fixed-size Summary over the federation
// management link: a bloom filter over its service names (the
// "prefix/summary table" of the hierarchical-directory literature),
// aggregate free/total memory from the existing counter aggregation,
// and the cluster-wide arrival-rate EWMA the skew detector watches.
// Root lookup cost is O(clusters); the authoritative answer always
// comes from the owning cluster's board-0 directory.

// summaryBloomBytes sizes the per-cluster service-name filter: 512 bits
// with 3 hashes stays under ~2% false positives up to ~60 services per
// cluster, and a false positive only costs one extra delegation.
const summaryBloomBytes = 64

// summaryBloomHashes is the number of derived bit positions per name.
const summaryBloomHashes = 3

// SummaryBloom is the service-name membership filter in a Summary.
type SummaryBloom [summaryBloomBytes]byte

// bloomPositions derives the k bit positions for a name from one FNV-1a
// pass (double hashing: h1 + i*h2).
func bloomPositions(name string) [summaryBloomHashes]uint32 {
	h := fnv.New64a()
	h.Write([]byte(name))
	sum := h.Sum64()
	h1 := uint32(sum)
	h2 := uint32(sum>>32) | 1 // odd so the stride visits distinct bits
	var out [summaryBloomHashes]uint32
	for i := range out {
		out[i] = (h1 + uint32(i)*h2) % (summaryBloomBytes * 8)
	}
	return out
}

// Add inserts a (canonical) service name.
func (b *SummaryBloom) Add(name string) {
	for _, p := range bloomPositions(name) {
		b[p/8] |= 1 << (p % 8)
	}
}

// MayContain reports whether name could be in the set (false positives
// possible, false negatives not).
func (b *SummaryBloom) MayContain(name string) bool {
	for _, p := range bloomPositions(name) {
		if b[p/8]&(1<<(p%8)) == 0 {
			return false
		}
	}
	return true
}

// Summary is one cluster's row at the federation root.
type Summary struct {
	// Cluster is the member's federation id.
	Cluster int
	// Epoch is the member directory's change counter: any registration
	// or unregistration bumps it, and the root invalidates its
	// delegation/negative caches when a row's epoch moves.
	Epoch uint64
	// Services counts registered (non-moved) services — a count, never
	// the rows themselves.
	Services uint32
	// Ready counts replicas currently serving across the cluster.
	Ready uint32
	// FreeMiB / CapMiB aggregate guest memory over alive boards.
	FreeMiB uint32
	CapMiB  uint32
	// LoadMilli is the cluster-wide arrival-rate EWMA (Σ per-service
	// effective rates) in milli-arrivals/second — the quantity the
	// root's skew detector compares across clusters.
	LoadMilli uint32
	// Bloom may-contain filters delegations: the root only asks
	// clusters whose filter admits the queried name.
	Bloom SummaryBloom
}

// summaryWireVersion guards the fixed layout below.
const summaryWireVersion = 1

// summaryWireLen is the encoded size: version byte, cluster uint16,
// epoch uint64, five uint32 counters, and the bloom filter.
const summaryWireLen = 1 + 2 + 8 + 5*4 + summaryBloomBytes

// ErrBadSummary is returned for undecodable summary datagrams.
var ErrBadSummary = errors.New("cluster: bad summary encoding")

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// EncodeSummary appends s's wire form to buf. The layout is fixed:
//
//	[0]     version
//	[1:3]   cluster
//	[3:11]  epoch
//	[11:15] services
//	[15:19] ready
//	[19:23] freeMiB
//	[23:27] capMiB
//	[27:31] loadMilli
//	[31:]   bloom
func EncodeSummary(s Summary, buf []byte) []byte {
	var w [summaryWireLen]byte
	w[0] = summaryWireVersion
	w[1], w[2] = byte(s.Cluster>>8), byte(s.Cluster)
	for i := 0; i < 8; i++ {
		w[3+i] = byte(s.Epoch >> (56 - 8*i))
	}
	putU32(w[11:], s.Services)
	putU32(w[15:], s.Ready)
	putU32(w[19:], s.FreeMiB)
	putU32(w[23:], s.CapMiB)
	putU32(w[27:], s.LoadMilli)
	copy(w[31:], s.Bloom[:])
	return append(buf, w[:]...)
}

// DecodeSummary parses one summary datagram.
func DecodeSummary(b []byte) (Summary, error) {
	var s Summary
	if len(b) != summaryWireLen || b[0] != summaryWireVersion {
		return s, ErrBadSummary
	}
	s.Cluster = int(b[1])<<8 | int(b[2])
	for i := 0; i < 8; i++ {
		s.Epoch = s.Epoch<<8 | uint64(b[3+i])
	}
	s.Services = getU32(b[11:])
	s.Ready = getU32(b[15:])
	s.FreeMiB = getU32(b[19:])
	s.CapMiB = getU32(b[23:])
	s.LoadMilli = getU32(b[27:])
	copy(s.Bloom[:], b[31:])
	return s, nil
}

// buildSummary renders the member cluster's current row: bloom over the
// live (non-moved) service set, memory aggregated over alive boards,
// and the arrival-rate EWMA sum.
func (c *Cluster) buildSummary(id int, epoch uint64, now sim.Duration) Summary {
	s := Summary{Cluster: id, Epoch: epoch}
	s.CapMiB, s.FreeMiB = c.memMiB()
	load := 0.0
	for e := range c.dir.walk {
		if e.moved {
			continue
		}
		s.Services++
		s.Bloom.Add(e.Name)
		s.Ready += uint32(e.readyCount())
		load += e.effectiveRate(now)
	}
	s.LoadMilli = uint32(load * 1000)
	return s
}

// memMiB sums guest memory over the boards that count toward the
// cluster's capacity: every member neither dead nor departed.
func (c *Cluster) memMiB() (capMiB, freeMiB uint32) {
	for _, m := range c.members {
		if m.State != MemberDead && m.State != MemberLeft {
			capMiB += uint32(c.Cfg.Board.TotalMemMiB)
			freeMiB += uint32(max(m.Board.Jitsu.FreeMemMiB(), 0))
		}
	}
	return capMiB, freeMiB
}

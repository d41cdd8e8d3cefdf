package xenstore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// populated returns a store of about n nodes laid out like the
// toolstack's records, /local/domain/<id>/key<k>, eight keys a domain.
func populated(n int) *Store {
	s := NewStore(JitsuReconciler{})
	for i := 0; i < n; i++ {
		if err := s.Write(Dom0, nil, fmt.Sprintf("/local/domain/%d/key%d", i/8, i%8), "v"); err != nil {
			panic(err)
		}
	}
	return s
}

func dumpOf(root *node) []string {
	var out []string
	root.dump("/", &out)
	return out
}

func TestSnapshotIsolation(t *testing.T) {
	s := populated(64)
	s.Write(Dom0, nil, "/tool/sub/leaf", "v0")
	tx, other := s.Begin(Dom0), s.Begin(Dom0)
	if got, _ := s.Read(Dom0, tx, "/tool/sub/leaf"); got != "v0" {
		t.Fatalf("snapshot read = %q", got)
	}
	before := dumpOf(tx.root)

	// Later immediate writes, a removal of the subtree tx has read, another
	// transaction's uncommitted writes, and that transaction's commit.
	s.Write(Dom0, nil, "/local/domain/1/key1", "changed")
	s.Write(Dom0, nil, "/local/domain/new/key", "v")
	s.SetPerms(Dom0, nil, "/local/domain/2", Perms{Owner: 3, Others: AccessNone})
	s.Rm(Dom0, nil, "/tool/sub")
	s.Write(Dom0, other, "/local/domain/3/key3", "uncommitted")
	s.Rm(Dom0, other, "/local/domain/4")
	if !slices.Equal(dumpOf(tx.root), before) {
		t.Fatal("open transaction observed later writes")
	}
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dumpOf(tx.root), before) {
		t.Fatal("open transaction observed a later commit")
	}
	if got, err := s.Read(Dom0, tx, "/tool/sub/leaf"); err != nil || got != "v0" {
		t.Fatalf("removed subtree through the snapshot = %q, %v", got, err)
	}
	if _, err := s.Read(Dom0, nil, "/tool/sub/leaf"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live read of removed subtree = %v", err)
	}

	// The other way round: tx's own writes stay its own until it commits.
	live := dumpOf(s.root)
	s.Write(Dom0, tx, "/local/domain/5/key5", "mine")
	s.Rm(Dom0, tx, "/local/domain/6")
	if !slices.Equal(dumpOf(s.root), live) {
		t.Fatal("uncommitted transaction writes reached the live tree")
	}
	tx.Abort()
}

func TestAbortLeavesLiveTreeUntouched(t *testing.T) {
	s := populated(64)
	var collect func(n *node, into []*node) []*node
	collect = func(n *node, into []*node) []*node {
		into = append(into, n)
		for _, ch := range n.kids {
			into = collect(ch, into)
		}
		return into
	}
	root, nodes, want := s.root, collect(s.root, nil), dumpOf(s.root)

	tx := s.Begin(Dom0)
	s.Write(Dom0, tx, "/local/domain/1/key1", "x")
	s.Write(Dom0, tx, "/local/domain/fresh/key", "x")
	s.Rm(Dom0, tx, "/local/domain/2")
	s.SetPerms(Dom0, tx, "/local/domain/3", Perms{Owner: 3})
	tx.Abort()

	if s.root != root {
		t.Fatal("abort moved the live root")
	}
	if !slices.Equal(collect(s.root, nil), nodes) || !slices.Equal(dumpOf(s.root), want) {
		t.Fatal("abort left the live tree with different nodes or contents")
	}
}

func TestBeginAllocsIndependentOfSize(t *testing.T) {
	for _, n := range []int{100, 10000} {
		s := populated(n)
		if got := testing.AllocsPerRun(100, func() { s.Begin(Dom0) }); got > 2 {
			t.Errorf("Begin on %d nodes: %v allocs, want <= 2", n, got)
		}
	}
}

func TestTxAllocsIndependentOfSize(t *testing.T) {
	var counts []float64
	for _, n := range []int{100, 1000, 10000} {
		s := populated(n)
		counts = append(counts, testing.AllocsPerRun(50, func() { probeTx(s) }))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("Begin+8xWrite+Commit allocs at 100/1k/10k nodes = %v, want equal", counts)
	}
}

// probeTx is the toolstack's domain-record transaction, the shape the
// repository benchmark's xenstore.probe.tx_* rows time.
func probeTx(s *Store) {
	tx := s.Begin(Dom0)
	for k := 0; k < 8; k++ {
		_ = s.Write(Dom0, tx, "/local/domain/probe/key"+string(rune('0'+k)), "v")
	}
	if err := tx.Commit(); err != nil {
		panic(err)
	}
}

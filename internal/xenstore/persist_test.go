package xenstore

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
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

// With no transaction open the live tree edits its nodes in place; a
// transaction begun afterwards sees the edit, and while one is open a
// live write copies what predates the last Begin instead. Closing a
// transaction twice counts once: the other open one keeps its snapshot.
func TestLiveTreeEditsInPlaceWithoutSnapshots(t *testing.T) {
	s := populated(64)
	const key = "/local/domain/1/key1"
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func(tx *Tx, want string) {
		t.Helper()
		if got, err := s.Read(Dom0, tx, key); err != nil || got != want {
			t.Fatalf("read = %q, %v; want %q", got, err, want)
		}
	}
	inPlace := func(value string, want bool) {
		t.Helper()
		root, leaf := s.root, lookup(s.root, xpath{s: key})
		must(s.Write(Dom0, nil, key, value))
		if got := s.root == root && lookup(s.root, xpath{s: key}) == leaf; got != want {
			t.Fatalf("write of %q edited in place = %v, want %v", value, got, want)
		}
	}
	inPlace("a", true)
	tx, other := s.Begin(Dom0), s.Begin(Dom0)
	read(tx, "a")
	inPlace("b", false)
	read(tx, "a")
	read(nil, "b")
	tx.Abort()
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("commit after abort = %v", err)
	}
	s.Begin(Dom0).Abort() // every live node now predates the last Begin
	inPlace("c", false)
	read(other, "a")
	other.Abort()
	s.Begin(Dom0).Abort() // the last one closed, nothing is copied
	inPlace("d", true)
	read(nil, "d")
}

// A transaction kept after its merged Commit holds none of the nodes it
// saw or made: not the root it began on, not its own copies, not a
// subtree it removed, and not a node it created, once the live tree has
// removed that too.
func TestKeptTransactionPinsNothing(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Write(Dom0, nil, "/tool/gone/leaf", "v"))
	var collected atomic.Int32 // cleanups run on their own goroutine
	watch := func(n *node) {
		runtime.AddCleanup(n, func(c *atomic.Int32) { c.Add(1) }, &collected)
	}
	tx := s.Begin(Dom0)
	watch(tx.base)
	watch(lookup(s.root, xpath{s: "/tool/gone"}))
	must(s.Write(Dom0, tx, "/tool/made/leaf", "v"))
	must(s.Rm(Dom0, tx, "/tool/gone"))
	watch(tx.root)
	must(s.Write(Dom0, nil, "/tool/tick", "v")) // so the commit merges
	must(tx.Commit())
	made := lookup(s.root, xpath{s: "/tool/made"})
	if made == nil || made.edit != s.edit {
		t.Fatal("the merged commit did not install /tool/made")
	}
	watch(made)
	must(s.Rm(Dom0, nil, "/tool/made"))
	for i := 0; i < 100 && collected.Load() < 4; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n < 4 {
		t.Fatalf("%d of 4 nodes collected while the committed Tx is kept", n)
	}
	runtime.KeepAlive(tx)
	runtime.KeepAlive(s)
}

// TestPooledLogHoldsNothing: the logs closed transactions hand back —
// from a fast-forward commit, a merging one whose records, log and quota
// steps all outgrew the log's arrays, an abort, and a crowd of open
// transactions — hold no path, value, permission or node, and the store
// keeps no more than maxSpareLogs of them.
func TestPooledLogHoldsNothing(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Write(Dom0, nil, "/tool/gone/leaf", "v"))
	must(s.Mkdir(Dom0, nil, "/local/domain/7"))
	must(s.SetPerms(Dom0, nil, "/local/domain/7", Perms{Owner: 7}))
	clean := func(when string) {
		t.Helper()
		for i, l := range s.logs[:s.nlogs] {
			if *l != (txLog{}) {
				t.Fatalf("%s: pooled log %d of %d keeps what a transaction wrote", when, i, s.nlogs)
			}
		}
	}

	tx := s.Begin(Dom0)
	must(s.Write(Dom0, tx, "/tool/ff", "v"))
	must(s.SetPerms(Dom0, tx, "/tool/ff", Perms{Owner: 7}))
	must(s.Rm(Dom0, tx, "/tool/gone"))
	must(tx.Commit()) // nothing happened meanwhile: a fast-forward
	clean("fast-forward")

	tx = s.Begin(7)
	for i := 0; i < txOps+8; i++ {
		must(s.Write(7, tx, fmt.Sprintf("/local/domain/7/k%d/leaf", i), "value"))
	}
	must(s.Rm(7, tx, "/local/domain/7/k0"))
	if len(tx.recs) <= txRecs || len(tx.ops) <= txOps || len(tx.quota) <= len(tx.log.quota) || tx.index == nil {
		t.Fatalf("%d records, %d ops, %d quota steps: not past the log's arrays", len(tx.recs), len(tx.ops), len(tx.quota))
	}
	must(s.Write(Dom0, nil, "/tool/tick", "v")) // so the commit merges
	must(tx.Commit())
	clean("merge")

	tx = s.Begin(Dom0)
	must(s.Write(Dom0, tx, "/tool/aborted", "v"))
	tx.Abort()
	clean("abort")

	var open []*Tx
	held := map[*txLog]bool{}
	for i := 0; i < 2*maxSpareLogs; i++ {
		open = append(open, s.Begin(Dom0))
		if held[open[i].log] {
			t.Fatalf("open transaction %d shares its log with another", i)
		}
		held[open[i].log] = true
		must(s.Write(Dom0, open[i], fmt.Sprintf("/tool/crowd%d", i), "v"))
	}
	for _, tx := range open {
		tx.Abort()
	}
	clean("crowd")
	if s.nlogs != maxSpareLogs {
		t.Fatalf("the store keeps %d logs after %d transactions closed, want %d", s.nlogs, len(open), maxSpareLogs)
	}
}

// Mutations and commits made by a watch callback during a delivery queue
// their events behind it, in the order the deep-copying store fired
// them; the store's own event list, lent to the outer write, is not lent
// again to them.
func TestMutationsDuringDeliveryKeepOrder(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Write(Dom0, nil, "/tool/w/u/v", "v")) // the store's list has room for four
	var got []string
	nested := false
	s.WatchPath(Dom0, "/tool", "w", func(p, _ string) {
		got = append(got, p)
		if p != "/tool/a" || nested {
			return
		}
		nested = true
		must(s.Write(Dom0, nil, "/tool/x", "v"))
		tx := s.Begin(Dom0)
		must(s.Write(Dom0, tx, "/tool/y/z", "v"))
		must(s.Rm(Dom0, tx, "/tool/x"))
		must(tx.Commit())
	})
	got = nil
	must(s.Write(Dom0, nil, "/tool/a/b", "v"))
	tx := s.Begin(Dom0)
	must(s.Write(Dom0, tx, "/tool/c", "v"))
	must(tx.Commit())
	must(s.Rm(Dom0, nil, "/tool/a"))
	want := []string{"/tool/a", "/tool/a/b", "/tool/a/b", "/tool/x", "/tool/x", "/tool/y",
		"/tool/y/z", "/tool/y/z", "/tool/x", "/tool/c", "/tool/c", "/tool/a"}
	if !slices.Equal(got, want) {
		t.Fatalf("deliveries = %q\nwant         %q", got, want)
	}
}

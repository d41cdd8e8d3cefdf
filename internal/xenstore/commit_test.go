package xenstore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// Directed tests around Commit's two outcomes and the immediate-write
// fix. Each scripts a short scenario on the store and on the reference
// model together (model_test.go) and compares everything observable.

// modelPair drives the store and the model with one script.
type modelPair struct {
	t   *testing.T
	s   *Store
	ref *refStore
	log []string
}

func newModelPair(t *testing.T, kind, quota int) *modelPair {
	p := &modelPair{t: t, s: NewStore(modelRecs[kind]), ref: newRefStore(kind)}
	p.s.NodeQuota, p.ref.quota = quota, quota
	return p
}

func (p *modelPair) begin(dom DomID) *txPair {
	return &txPair{real: p.s.Begin(dom), ref: p.ref.begin(dom)}
}

// do applies one mutation to both, inside tx or (nil) immediately, and
// returns the error both gave.
func (p *modelPair) do(kind opKind, dom DomID, tx *txPair, path, value string, perms Perms) error {
	p.t.Helper()
	var real *Tx
	var ref *refTx
	if tx != nil {
		real, ref = tx.real, tx.ref
	}
	var got error
	switch kind {
	case opWrite:
		got = p.s.Write(dom, real, path, value)
	case opMkdir:
		got = p.s.Mkdir(dom, real, path)
	case opRm:
		got = p.s.Rm(dom, real, path)
	case opSetPerms:
		got = p.s.SetPerms(dom, real, path, perms)
	}
	if want := p.ref.mutate(ref, kind, dom, path, value, perms); got != want {
		p.t.Fatalf("op %d %s: store %v, model %v", kind, path, got, want)
	}
	return got
}

func (p *modelPair) write(dom DomID, tx *txPair, path, value string) error {
	p.t.Helper()
	return p.do(opWrite, dom, tx, path, value, Perms{})
}

func (p *modelPair) rm(dom DomID, tx *txPair, path string) error {
	p.t.Helper()
	return p.do(opRm, dom, tx, path, "", Perms{})
}

func (p *modelPair) watch(path, token string) {
	p.t.Helper()
	if _, err := p.s.WatchPath(Dom0, path, token, func(path, token string) { p.log = append(p.log, path+"|"+token) }); err != nil {
		p.t.Fatal(err)
	}
	p.ref.watch(path, token)
}

// commit ends tx on both sides, checks the store took the outcome the
// scenario is about (fastForward) and returns the shared verdict.
func (p *modelPair) commit(tx *txPair, fastForward bool) error {
	p.t.Helper()
	if got := tx.real.fastForward(); got != fastForward {
		p.t.Fatalf("about to fast-forward = %v, scenario wants %v", got, fastForward)
	}
	got, want := tx.real.Commit(), tx.ref.commit()
	if got != want {
		p.t.Fatalf("Commit: store %v, model %v", got, want)
	}
	return got
}

func (p *modelPair) same() {
	p.t.Helper()
	sameState(p.t, p.s, p.ref, p.log)
}

// A Write that creates two parents and then trips the quota on the leaf
// has changed the live tree: the two nodes must be announced, take a
// sequence number of their own, and conflict with a transaction that
// listed their directory — as they would had they been written alone.
func TestPartialImmediateWriteIsHeard(t *testing.T) {
	p := newModelPair(t, 2, 2)
	p.do(opMkdir, Dom0, nil, "/tool/g", "", Perms{})
	p.do(opSetPerms, Dom0, nil, "/tool/g", "", Perms{Owner: 3})
	p.watch("/tool/g", "w")
	lister := p.begin(Dom0)
	if _, err := p.s.List(Dom0, lister.real, "/tool/g"); err != nil {
		t.Fatal(err)
	}
	p.ref.get('l', Dom0, lister.ref, "/tool/g")

	before := p.s.Stats().Commits
	seq := p.s.seq
	if err := p.write(3, nil, "/tool/g/a/b/c", "v"); !errors.Is(err, ErrQuota) {
		t.Fatalf("Write past quota = %v, want ErrQuota", err)
	}
	if want := []string{"/tool/g|w", "/tool/g/a|w", "/tool/g/a/b|w"}; !slices.Equal(p.log, want) {
		t.Fatalf("events %v, want %v (registration, then the two nodes that exist)", p.log, want)
	}
	if p.s.seq != seq+1 || p.s.Stats().Commits != before+1 {
		t.Fatalf("seq %d -> %d, commits %d -> %d; want one step each", seq, p.s.seq, before, p.s.Stats().Commits)
	}
	if n := lookup(p.s.root, xpath{s: "/tool/g/a/b"}); n == nil || n.valueGen != p.s.seq {
		t.Fatalf("/tool/g/a/b = %+v, want stamped %d", n, p.s.seq)
	}
	// The next commit must not reuse that generation.
	p.write(Dom0, nil, "/tool/other", "v")
	if n := lookup(p.s.root, xpath{s: "/tool/other"}); n.valueGen != seq+2 {
		t.Fatalf("next write stamped %d, want %d", n.valueGen, seq+2)
	}
	if err := p.commit(lister, false); !errors.Is(err, ErrAgain) {
		t.Fatalf("transaction that listed /tool/g committed with %v, want ErrAgain", err)
	}
	// A failure that changed nothing stays silent and takes no number.
	seq = p.s.seq
	if err := p.write(3, nil, "/tool/g/a/b/d", "v"); !errors.Is(err, ErrQuota) || p.s.seq != seq {
		t.Fatalf("second Write = %v, seq %d -> %d; want ErrQuota and no step", err, seq, p.s.seq)
	}
	p.same()
}

// The plain fast-forward: created nodes, a removed subtree with a
// guest-owned node in it, a SetPerms, folded writes — one event per
// logged op, quota settled, stamps those of the commit's own number.
func TestFastForwardMatchesReplay(t *testing.T) {
	for kind := range modelRecs {
		p := newModelPair(t, kind, 6)
		p.do(opMkdir, Dom0, nil, "/tool/g", "", Perms{})
		p.do(opSetPerms, Dom0, nil, "/tool/g", "", Perms{Owner: 3, Others: AccessReadWrite})
		p.write(3, nil, "/tool/g/old/leaf", "v")
		p.watch("/tool", "w")
		tx := p.begin(3)
		p.write(3, tx, "/tool/g/a/b", "1")
		p.write(3, tx, "/tool/g/a/b", "2") // folds into the op above
		p.rm(3, tx, "/tool/g/old")
		p.do(opSetPerms, 3, tx, "/tool/g/a", "", Perms{Owner: 3, Others: AccessRead})
		p.write(3, tx, "/tool/g/a/c", "3")
		if err := p.commit(tx, true); err != nil {
			t.Fatal(err)
		}
		if got := p.s.OwnedNodes(3); got != 3 {
			t.Fatalf("%s: dom 3 owns %d nodes, want a, b, c", modelRecs[kind].Name(), got)
		}
		p.same()
		// Whoever began before that commit must now see it as concurrent.
		late := p.begin(Dom0)
		p.write(Dom0, late, "/tool/g/a/b", "x")
		if err := p.commit(late, true); err != nil {
			t.Fatal(err)
		}
		p.same()
	}
}

// A commit whose every target has gone takes a sequence number and
// writes nothing, so the root stays put while the sequence moves on. A
// transaction begun before it stamped its nodes for the number that
// commit took: it must merge, not fast-forward, or a third transaction
// begun in between misses the conflict.
func TestFastForwardNeedsUnmovedSequence(t *testing.T) {
	p := newModelPair(t, 2, 0)
	p.write(Dom0, nil, "/tool/x", "v")
	p.write(Dom0, nil, "/tool/y", "v")
	empty := p.begin(Dom0)
	p.rm(Dom0, empty, "/tool/x")
	p.rm(Dom0, nil, "/tool/x")
	writer := p.begin(Dom0)
	p.write(Dom0, writer, "/tool/y", "w")
	root := p.s.root
	if err := p.commit(empty, false); err != nil {
		t.Fatal(err)
	}
	if p.s.root != root {
		t.Fatal("a commit with nothing to apply moved the root; the scenario no longer tests what it says")
	}
	reader := p.begin(Dom0)
	if _, err := p.s.Read(Dom0, reader.real, "/tool/y"); err != nil {
		t.Fatal(err)
	}
	p.ref.get('r', Dom0, reader.ref, "/tool/y")
	if err := p.commit(writer, false); err != nil {
		t.Fatal(err)
	}
	p.write(Dom0, reader, "/tool/z", "v")
	if err := p.commit(reader, false); !errors.Is(err, ErrAgain) {
		t.Fatalf("reader of /tool/y committed with %v after a concurrent write to it, want ErrAgain", err)
	}
	p.same()
}

// A merging commit installs the nodes its transaction created, reset for
// the live tree, and makes new ones only for the parents a removal took
// meanwhile: here /tool/a, gone from under the transaction's b and c.
func TestMergeRecreatesRemovedParents(t *testing.T) {
	for kind := range modelRecs {
		p := newModelPair(t, kind, 0)
		p.write(Dom0, nil, "/tool/a/x", "v")
		p.watch("/tool", "w")
		tx := p.begin(Dom0)
		p.write(Dom0, tx, "/tool/a/b/c", "v")
		p.rm(Dom0, nil, "/tool/a")
		p.commit(tx, false)
		p.same()
	}
}

// Replay acts as the opener whoever wrote: under /conduit
// (RestrictCreate) a key written through Dom0's transaction by dom 3
// ends up Dom0's. Such a transaction's own tree says dom 3's, so it
// must take the merge path.
func TestForeignDomainTransactionMerges(t *testing.T) {
	p := newModelPair(t, 2, 6)
	tx := p.begin(Dom0)
	p.write(3, tx, "/conduit/svc", "v")
	if err := p.commit(tx, false); err != nil {
		t.Fatal(err)
	}
	p.same()
}

// Quota is settled step by step, as replay does: releasing a node whose
// owner was never charged (SetPerms gave it away) is clamped at zero, so
// the order of a release and a charge inside one transaction shows.
func TestFastForwardSettlesQuotaInOrder(t *testing.T) {
	for _, rmFirst := range []bool{true, false} {
		p := newModelPair(t, 2, 6)
		p.do(opMkdir, Dom0, nil, "/tool/g", "", Perms{})
		p.do(opSetPerms, Dom0, nil, "/tool/g", "", Perms{Owner: 3})
		p.write(Dom0, nil, "/tool/gift", "v")
		p.do(opSetPerms, Dom0, nil, "/tool/gift", "", Perms{Owner: 3}) // owned by 3, charged to nobody
		tx := p.begin(3)
		if rmFirst {
			p.rm(3, tx, "/tool/gift")
			p.write(3, tx, "/tool/g/k", "v")
		} else {
			p.write(3, tx, "/tool/g/k", "v")
			p.rm(3, tx, "/tool/gift")
		}
		if err := p.commit(tx, true); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 1, false: 0}[rmFirst]; p.s.OwnedNodes(3) != want {
			t.Fatalf("rm first %v: dom 3 owns %d, want %d", rmFirst, p.s.OwnedNodes(3), want)
		}
		p.same()
	}
}

// A transaction that outgrows its inline records must keep every record
// it made before the index existed: one that reads a node, touches many
// other paths and then removes the node has one record for it, and gets
// the verdicts a small transaction gets.
func TestLargeTransactionMatchesSmall(t *testing.T) {
	for kind := range modelRecs {
		for _, concurrent := range []string{"", "rm", "write"} {
			var verdicts []error
			for _, pad := range []int{10, 100} {
				p := newModelPair(t, kind, 0)
				p.write(Dom0, nil, "/tool/x", "v")
				tx := p.begin(Dom0)
				if _, err := p.s.Read(Dom0, tx.real, "/tool/x"); err != nil {
					t.Fatal(err)
				}
				p.ref.get('r', Dom0, tx.ref, "/tool/x")
				for i := 0; i < pad; i++ {
					p.write(Dom0, tx, fmt.Sprint("/tool/pad/k", i), "v")
				}
				p.rm(Dom0, tx, "/tool/x")
				// /tool/x, /tool, /tool/pad and the pad keys: no path twice.
				if got, want := len(tx.real.recs), pad+3; got != want {
					t.Fatalf("%d-path transaction holds %d records, want %d", pad, got, want)
				}
				if (tx.real.index != nil) != (pad > txRecs) {
					t.Fatalf("%d-path transaction: index built = %v", pad, tx.real.index != nil)
				}
				switch concurrent {
				case "rm":
					p.rm(Dom0, nil, "/tool/x")
				case "write":
					p.write(Dom0, nil, "/tool/other", "v")
				}
				verdicts = append(verdicts, p.commit(tx, concurrent == ""))
				p.same()
			}
			if verdicts[0] != verdicts[1] {
				t.Errorf("%s, concurrent %q: 10 paths %v, 100 paths %v", modelRecs[kind].Name(), concurrent, verdicts[0], verdicts[1])
			}
		}
	}
}

// buildRecords is the toolstack's twelve-key domain-build record set.
var buildRecords = []Record{{"/name", "v"}, {"/domid", "v"}, {"/memory/target", "v"}, {"/memory/static-max", "v"},
	{"/vm", "v"}, {"/control/shutdown", "v"}, {"/console/ring-ref", "v"}, {"/console/port", "v"},
	{"/console/limit", "v"}, {"/console/type", "v"}, {"/store/ring-ref", "v"}, {"/store/port", "v"}}

// buildTx writes and commits the build set for dom, optionally letting
// one immediate write land first so that the commit has to merge.
func buildTx(s *Store, dom DomID, merge bool) error {
	base := DomainPath(dom)
	tx := s.Begin(Dom0)
	if err := s.WriteRecords(Dom0, tx, base, buildRecords); err != nil {
		return err
	}
	if merge {
		if err := s.Write(Dom0, nil, "/tool/tick", "v"); err != nil {
			return err
		}
	}
	return tx.Commit()
}

func TestAllocationPins(t *testing.T) {
	s := populated(1000)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := parsePath("/local/domain/60/key3/"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("parsePath: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := s.Read(Dom0, nil, "/local/domain/60/key3"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Read: %v allocs, want 0", got)
	}
	// One domain build on the fast-forward path, 9 objects: DomainPath,
	// the set's one path string, the Tx, the slab of its 17 nodes and the
	// one child slice among them that outgrew its node (the domain
	// directory's seven keys; memory, control, console and store keep
	// theirs inline), and the transaction's copy of the
	// root-to-/local/domain path — three nodes and the long child slice
	// of /local/domain. The event list is the store's.
	want := 9.0
	if raceEnabled {
		want++ // the domain directory's spill
	}
	dom := DomID(5000)
	if got := testing.AllocsPerRun(100, func() {
		dom++
		if err := buildTx(s, dom, false); err != nil {
			t.Fatal(err)
		}
	}); got > want {
		t.Errorf("domain-build transaction: %v allocs, want <= %v", got, want)
	}
	// The same build on the merge path costs four more: the immediate
	// write's copy of root, /tool and /tool/tick under the open
	// transaction, and the replay's domain directory spilling again. The
	// 17 slab nodes the transaction created are the ones the replay
	// installs.
	want += 4
	if raceEnabled {
		want++ // the replayed domain directory's spill
	}
	if got := testing.AllocsPerRun(100, func() {
		dom++
		if err := buildTx(s, dom, true); err != nil {
			t.Fatal(err)
		}
	}); got > want {
		t.Errorf("merged domain-build transaction: %v allocs, want <= %v", got, want)
	}
	// An immediate write to an existing leaf edits it in place while no
	// transaction is open, also once one has come and gone, and copies
	// its path once while one is: root, /local, /local/domain with its
	// long child slice, the domain with its spilled one, and the leaf.
	// Begin and Abort cost the Tx alone.
	if got := testing.AllocsPerRun(100, func() {
		if err := s.Write(Dom0, nil, "/local/domain/60/key3", "v"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("immediate write: %v allocs, want 0", got)
	}
	for _, open := range []bool{false, true} {
		want := 1.0
		if open {
			want += 7
		}
		if got := testing.AllocsPerRun(100, func() {
			tx := s.Begin(Dom0)
			if !open {
				tx.Abort()
			}
			if err := s.Write(Dom0, nil, "/local/domain/60/key3", "v"); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		}); got != want {
			t.Errorf("Begin, immediate write (transaction open: %v), Abort: %v allocs, want %v", open, got, want)
		}
	}
}

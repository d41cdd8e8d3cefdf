package xenstore

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// recordSet is one WriteRecords call.
type recordSet struct {
	base string
	recs []Record
}

// coldStartSets are the record sets of one cold start, keyed as the
// toolstack writes them — build, vif front, vif back — and the set
// Synjitsu hands the booted guest its parked connections in. made is
// how many nodes each creates once a first guest has made the backend
// directories and the service's /conduit entry exists.
func coldStartSets(dom DomID) (sets []recordSet, made []int) {
	id := strconv.Itoa(int(dom))
	front := DomainPath(dom) + "/device/vif/0"
	back := "/local/domain/0/backend/vif/" + id + "/0"
	return []recordSet{
		{DomainPath(dom), buildRecords},
		{front, []Record{{"/backend", back}, {"/backend-id", "0"}, {"/mac", "m"}, {"/state", "1"}}},
		{back, []Record{{"/frontend", front}, {"/frontend-id", id}, {"/mac", "m"}, {"/bridge", "xenbr0"},
			{"/handle", "0"}, {"/state", "4"}}},
		{"/conduit/svc" + id + "/tcpv4/", []Record{{"1", "tcb"}, {"2", "tcb"}, {"3", "tcb"}}},
	}, []int{17, 7, 8, 4}
}

// nodesOf maps every path in the tree under root to its node.
func nodesOf(root *node) map[string]*node {
	out := map[string]*node{}
	var walk func(path string, n *node)
	walk = func(path string, n *node) {
		out[path] = n
		for _, ch := range n.kids {
			walk(strings.TrimSuffix(path, "/")+"/"+ch.name, ch)
		}
	}
	walk("/", root)
	return out
}

// madeSince returns the nodes at paths under prefix that before lacked.
func madeSince(root *node, before map[string]*node, prefix string) []*node {
	var made []*node
	for p, n := range nodesOf(root) {
		if _, ok := before[p]; !ok && IsPrefix(prefix, p) {
			made = append(made, n)
		}
	}
	return made
}

// inSlab reports whether every node of made lies in one run of n
// consecutive nodes, as the n nodes of one slab do and n separately
// allocated ones need not.
func inSlab(made []*node, n int) bool {
	if len(made) == 0 {
		return n == 0
	}
	lo := slices.MinFunc(made, func(a, b *node) int { return int(uintptr(unsafe.Pointer(a)) - uintptr(unsafe.Pointer(b))) })
	for _, m := range made {
		if d := uintptr(unsafe.Pointer(m)) - uintptr(unsafe.Pointer(lo)); d >= uintptr(n)*unsafe.Sizeof(node{}) {
			return false
		}
	}
	return true
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Every node a cold start's record sets create comes from its set's
// slab, and the count the slab was sized by is the number created: none
// taken from elsewhere, none left over. In transactions and on the live
// tree alike.
func TestRecordSetsTakeExactlyTheirSlab(t *testing.T) {
	for _, live := range []bool{false, true} {
		s := NewStore(JitsuReconciler{})
		mustOK(t, s.Write(Dom0, nil, "/local/domain/0/backend/vif/1/0/state", "4"))
		for dom := DomID(2); dom < 4; dom++ {
			sets, made := coldStartSets(dom)
			mustOK(t, s.Write(Dom0, nil, "/conduit/svc"+strconv.Itoa(int(dom))+"/tcpv4/1", "syn"))
			for i, set := range sets {
				var tx *Tx
				if !live {
					tx = s.Begin(Dom0)
				}
				if i == 3 { // the handoff rewrites the parked entries
					mustOK(t, s.Rm(Dom0, tx, strings.TrimSuffix(set.base, "/")))
				}
				root := func() *node {
					if tx != nil {
						return tx.root
					}
					return s.root
				}
				before := nodesOf(root())
				var paths strings.Builder
				for _, r := range set.recs {
					paths.WriteString(set.base + r.Key)
				}
				counted := s.missing(tx, paths.String(), len(set.base), set.recs)
				mustOK(t, s.WriteRecords(Dom0, tx, set.base, set.recs))
				got := madeSince(root(), before, "/")
				what := fmt.Sprintf("live=%v dom %d set %d", live, dom, i)
				if len(got) != made[i] || counted != made[i] {
					t.Fatalf("%s: created %d nodes, counted %d, want %d", what, len(got), counted, made[i])
				}
				if !inSlab(got, counted) {
					t.Fatalf("%s: the %d nodes created are not one slab", what, len(got))
				}
				if tx != nil {
					mustOK(t, tx.Commit())
				}
			}
		}
	}
}

// A watch callback that writes while a set's records are delivered
// makes its own nodes: the set's slab stays exactly the set's.
func TestWatchWriteDuringASetTakesNoSlabNode(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	var nested []*node
	base := DomainPath(5)
	_, err := s.WatchPath(Dom0, base, "w", func(p, _ string) {
		if p == base+"/memory/target" && nested == nil {
			mustOK(t, s.Write(Dom0, nil, "/tool/x/y", "v"))
			nested = []*node{lookup(s.root, xpath{s: "/tool/x"}), lookup(s.root, xpath{s: "/tool/x/y"})}
		}
	})
	mustOK(t, err)
	before := nodesOf(s.root)
	mustOK(t, s.WriteRecords(Dom0, nil, base, buildRecords))
	if nested == nil {
		t.Fatal("the callback never wrote")
	}
	got := madeSince(s.root, before, base)
	if len(got) != 17 || !inSlab(got, 17) {
		t.Fatalf("build set: %d nodes, one slab: %v; want 17 in one", len(got), inSlab(got, 17))
	}
	for _, n := range nested {
		if inSlab(append(got[:17:17], n), 17) {
			t.Fatalf("the callback's %s came from the set's slab", n.name)
		}
	}
}

// On the live tree each record is a mutation of its own: its own
// sequence number and its own delivery, before the next record is
// written.
func TestLiveRecordSetIsAMutationPerRecord(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	var seen []string
	_, err := s.WatchPath(Dom0, "/tool/set", "w", func(p, _ string) {
		last, _ := s.Exists(Dom0, nil, "/tool/set/c")
		seen = append(seen, fmt.Sprint(p, " c=", last))
	})
	mustOK(t, err)
	seen, seq, commits := nil, s.seq, s.Stats().Commits
	mustOK(t, s.WriteRecords(Dom0, nil, "/tool/set", []Record{{"/a", "1"}, {"/b", "2"}, {"/c", "3"}}))
	want := []string{"/tool/set c=false", "/tool/set/a c=false", "/tool/set/a c=false",
		"/tool/set/b c=false", "/tool/set/b c=false", "/tool/set/c c=true", "/tool/set/c c=true"}
	if !slices.Equal(seen, want) {
		t.Fatalf("deliveries = %q\nwant         %q", seen, want)
	}
	if s.seq-seq != 3 || s.Stats().Commits-commits != 3 {
		t.Fatalf("3 records took %d sequence numbers and %d commits, want 3 each", s.seq-seq, s.Stats().Commits-commits)
	}
}

// A slab lives while any of its nodes does, and no longer: with every
// closed Tx kept, a node of each of a cold start's sets — one committed
// by merging — is collected once the destroy transaction and the
// guest's removal of its TCBs have removed them.
func TestRemovedSetsAreCollected(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	mustOK(t, s.Write(Dom0, nil, "/local/domain/0/backend/vif/1/0/state", "4"))
	mustOK(t, s.Write(Dom0, nil, "/conduit/svc7/handoff", "pending"))
	sets, _ := coldStartSets(7)
	var kept []*Tx
	var collected atomic.Int32 // cleanups run on their own goroutine
	for i, set := range sets {
		tx := s.Begin(Dom0)
		mustOK(t, s.WriteRecords(Dom0, tx, set.base, set.recs))
		if i == 1 {
			mustOK(t, s.Write(Dom0, nil, "/tool/tick", "v")) // so this commit merges
		}
		mustOK(t, tx.Commit())
		kept = append(kept, tx)
		n := lookup(s.root, xpath{s: set.base + set.recs[len(set.recs)-1].Key})
		runtime.AddCleanup(n, func(c *atomic.Int32) { c.Add(1) }, &collected)
	}
	tx := s.Begin(Dom0)
	mustOK(t, s.Rm(Dom0, tx, DomainPath(7)))
	mustOK(t, s.Rm(Dom0, tx, "/local/domain/0/backend/vif/7"))
	mustOK(t, tx.Commit())
	kept = append(kept, tx)
	mustOK(t, s.Rm(Dom0, nil, "/conduit/svc7/tcpv4"))
	for i := 0; i < 100 && collected.Load() < int32(len(sets)); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n < int32(len(sets)) {
		t.Fatalf("%d of %d sets collected after their removal", n, len(sets))
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(s)
}

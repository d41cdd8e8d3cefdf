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

func newTestStore() *Store { return NewStore(OCamlReconciler{}) }

func TestBasicReadWrite(t *testing.T) {
	s := newTestStore()
	if err := s.Write(Dom0, nil, "/local/domain/3/name", "http_server"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(Dom0, nil, "/local/domain/3/name")
	if err != nil || got != "http_server" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	// Intermediate directories were created implicitly.
	if ok, _ := s.Exists(Dom0, nil, "/local/domain/3"); !ok {
		t.Fatal("intermediate dir not created")
	}
	// Overwrite.
	if err := s.Write(Dom0, nil, "/local/domain/3/name", "other"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read(Dom0, nil, "/local/domain/3/name"); got != "other" {
		t.Fatalf("overwrite lost: %q", got)
	}
}

func TestReadMissing(t *testing.T) {
	s := newTestStore()
	if _, err := s.Read(Dom0, nil, "/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Read(Dom0, nil, "bad path"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v, want ErrBadPath", err)
	}
}

func TestList(t *testing.T) {
	s := newTestStore()
	for _, n := range []string{"charlie", "alice", "bob"} {
		if err := s.Mkdir(Dom0, nil, "/tool/"+n); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List(Dom0, nil, "/tool")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alice", "bob", "charlie"}
	if len(names) != 3 {
		t.Fatalf("List = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("List = %v (not sorted?)", names)
		}
	}
	if _, err := s.List(Dom0, nil, "/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("List missing = %v", err)
	}
}

func TestRm(t *testing.T) {
	s := newTestStore()
	s.Write(Dom0, nil, "/tool/a/b/c", "v")
	if err := s.Rm(Dom0, nil, "/tool/a"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Exists(Dom0, nil, "/tool/a/b/c"); ok {
		t.Fatal("subtree survived Rm")
	}
	if err := s.Rm(Dom0, nil, "/tool/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Rm = %v", err)
	}
	if err := s.Rm(Dom0, nil, "/"); !errors.Is(err, ErrPerm) {
		t.Fatalf("Rm / = %v", err)
	}
}

func TestMkdirIdempotent(t *testing.T) {
	s := newTestStore()
	if err := s.Mkdir(Dom0, nil, "/tool/x"); err != nil {
		t.Fatal(err)
	}
	s.Write(Dom0, nil, "/tool/x/y", "keep")
	if err := s.Mkdir(Dom0, nil, "/tool/x"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read(Dom0, nil, "/tool/x/y"); got != "keep" {
		t.Fatal("Mkdir on existing dir destroyed children")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	s := newTestStore()
	// Dom0 sets up a private node for domain 3.
	s.Write(Dom0, nil, "/local/domain/3/private", "secret")
	s.SetPerms(Dom0, nil, "/local/domain/3/private", Perms{Owner: 3, Others: AccessNone})

	if _, err := s.Read(7, nil, "/local/domain/3/private"); !errors.Is(err, ErrPerm) {
		t.Fatalf("foreign read = %v, want ErrPerm", err)
	}
	if got, err := s.Read(3, nil, "/local/domain/3/private"); err != nil || got != "secret" {
		t.Fatalf("owner read = %q, %v", got, err)
	}
	if _, err := s.Read(Dom0, nil, "/local/domain/3/private"); err != nil {
		t.Fatalf("dom0 must bypass perms: %v", err)
	}
	if err := s.Write(7, nil, "/local/domain/3/private", "x"); !errors.Is(err, ErrPerm) {
		t.Fatalf("foreign write = %v, want ErrPerm", err)
	}
}

func TestPermEntriesAndOthers(t *testing.T) {
	s := newTestStore()
	s.Write(Dom0, nil, "/tool/shared", "v")
	s.SetPerms(Dom0, nil, "/tool/shared", Perms{
		Owner:   3,
		Others:  AccessRead,
		Entries: []PermEntry{{Dom: 7, Access: AccessReadWrite}, {Dom: 9, Access: AccessNone}},
	})
	if _, err := s.Read(5, nil, "/tool/shared"); err != nil {
		t.Fatalf("others read = %v", err)
	}
	if err := s.Write(5, nil, "/tool/shared", "x"); !errors.Is(err, ErrPerm) {
		t.Fatalf("others write = %v", err)
	}
	if err := s.Write(7, nil, "/tool/shared", "x"); err != nil {
		t.Fatalf("entry write = %v", err)
	}
	if _, err := s.Read(9, nil, "/tool/shared"); !errors.Is(err, ErrPerm) {
		t.Fatalf("AccessNone entry read = %v", err)
	}
}

func TestSetPermsOnlyOwner(t *testing.T) {
	s := newTestStore()
	s.Write(Dom0, nil, "/tool/n", "v")
	s.SetPerms(Dom0, nil, "/tool/n", Perms{Owner: 3, Others: AccessReadWrite})
	if err := s.SetPerms(7, nil, "/tool/n", Perms{Owner: 7}); !errors.Is(err, ErrPerm) {
		t.Fatalf("non-owner SetPerms = %v", err)
	}
	if err := s.SetPerms(3, nil, "/tool/n", Perms{Owner: 3, Others: AccessNone}); err != nil {
		t.Fatalf("owner SetPerms = %v", err)
	}
}

func TestChildInheritsPerms(t *testing.T) {
	s := newTestStore()
	s.Mkdir(Dom0, nil, "/tool/dir")
	s.SetPerms(Dom0, nil, "/tool/dir", Perms{Owner: 3, Others: AccessNone})
	// Domain 3 creates a child: it inherits the parent's perms.
	if err := s.Write(3, nil, "/tool/dir/child", "v"); err != nil {
		t.Fatal(err)
	}
	p, err := s.GetPerms(3, nil, "/tool/dir/child")
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner != 3 || p.Others != AccessNone {
		t.Fatalf("child perms = %+v", p)
	}
	if _, err := s.Read(7, nil, "/tool/dir/child"); !errors.Is(err, ErrPerm) {
		t.Fatal("inherited perms not enforced")
	}
}

func TestRestrictCreate(t *testing.T) {
	// §3.2.3: the listen directory is writable by all, but keys created
	// in it are visible only to the directory owner and the creator.
	s := newTestStore()
	s.Mkdir(Dom0, nil, "/conduit/http_server/listen")
	s.SetPerms(Dom0, nil, "/conduit/http_server/listen", Perms{
		Owner: 3, Others: AccessWrite, RestrictCreate: true,
	})
	// Client domain 7 registers a connection request.
	if err := s.Write(7, nil, "/conduit/http_server/listen/conn1", "domid=7"); err != nil {
		t.Fatal(err)
	}
	// Creator reads it.
	if got, err := s.Read(7, nil, "/conduit/http_server/listen/conn1"); err != nil || got != "domid=7" {
		t.Fatalf("creator read = %q, %v", got, err)
	}
	// Directory owner (the server, dom 3) reads it.
	if got, err := s.Read(3, nil, "/conduit/http_server/listen/conn1"); err != nil || got != "domid=7" {
		t.Fatalf("dir owner read = %q, %v", got, err)
	}
	// A third domain cannot observe the connection.
	if _, err := s.Read(9, nil, "/conduit/http_server/listen/conn1"); !errors.Is(err, ErrPerm) {
		t.Fatalf("third-party read = %v, want ErrPerm", err)
	}
	// Nor interfere with it.
	if err := s.Write(9, nil, "/conduit/http_server/listen/conn1", "hijack"); !errors.Is(err, ErrPerm) {
		t.Fatalf("third-party write = %v, want ErrPerm", err)
	}
	// RestrictCreate does not propagate to the created key itself:
	// children of conn1 are plain private keys of the creator.
	if err := s.Write(7, nil, "/conduit/http_server/listen/conn1/port", "p1"); err != nil {
		t.Fatal(err)
	}
	p, _ := s.GetPerms(7, nil, "/conduit/http_server/listen/conn1")
	if p.RestrictCreate {
		t.Fatal("RestrictCreate leaked onto created key")
	}
}

func TestWatchFiresOnRegistrationAndChange(t *testing.T) {
	s := newTestStore()
	var events []string
	w, err := s.WatchPath(Dom0, "/tool/svc", "tok", func(path, token string) {
		events = append(events, fmt.Sprintf("%s:%s", path, token))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Registration fires immediately with the watched path.
	if len(events) != 1 || events[0] != "/tool/svc:tok" {
		t.Fatalf("registration event = %v", events)
	}
	s.Write(Dom0, nil, "/tool/svc/state", "up")
	found := false
	for _, e := range events[1:] {
		if e == "/tool/svc/state:tok" {
			found = true
		}
	}
	if !found {
		t.Fatalf("change event missing: %v", events)
	}
	// Unrelated writes don't fire.
	n := len(events)
	s.Write(Dom0, nil, "/tool/other", "x")
	if len(events) != n {
		t.Fatalf("unrelated write fired watch: %v", events)
	}
	// Unwatch stops delivery.
	s.Unwatch(w)
	s.Write(Dom0, nil, "/tool/svc/state", "down")
	if len(events) != n {
		t.Fatal("unwatched watch fired")
	}
	s.Unwatch(w) // double unwatch is a no-op
}

func TestWatchFiresOnRm(t *testing.T) {
	s := newTestStore()
	s.Write(Dom0, nil, "/tool/svc/state", "up")
	var fired []string
	s.WatchPath(Dom0, "/tool/svc", "t", func(p, _ string) { fired = append(fired, p) })
	fired = nil
	s.Rm(Dom0, nil, "/tool/svc")
	if len(fired) != 1 || fired[0] != "/tool/svc" {
		t.Fatalf("rm events = %v", fired)
	}
}

func TestWatchNotFiredByAbortedTx(t *testing.T) {
	s := newTestStore()
	n := 0
	s.WatchPath(Dom0, "/tool", "t", func(p, _ string) { n++ })
	n = 0
	tx := s.Begin(Dom0)
	s.Write(Dom0, tx, "/tool/x", "v")
	if n != 0 {
		t.Fatal("tx write fired watch before commit")
	}
	tx.Abort()
	if n != 0 {
		t.Fatal("aborted tx fired watch")
	}
	tx2 := s.Begin(Dom0)
	s.Write(Dom0, tx2, "/tool/x", "v")
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("committed tx did not fire watch")
	}
}

func TestWatchReentrantMutation(t *testing.T) {
	// A watch callback that writes back into the store (the conduit
	// rendezvous does this) must not deadlock or lose events.
	s := newTestStore()
	replied := false
	s.WatchPath(Dom0, "/tool/req", "t", func(p, _ string) {
		if p == "/tool/req/in" && !replied {
			replied = true
			s.Write(Dom0, nil, "/tool/resp", "ack")
		}
	})
	got := ""
	s.WatchPath(Dom0, "/tool/resp", "t", func(p, _ string) {
		if p == "/tool/resp" {
			got, _ = s.Read(Dom0, nil, "/tool/resp")
		}
	})
	s.Write(Dom0, nil, "/tool/req/in", "hello")
	if got != "ack" {
		t.Fatalf("reentrant watch chain broken: %q", got)
	}
}

func TestTxSnapshotIsolation(t *testing.T) {
	s := newTestStore()
	s.Write(Dom0, nil, "/tool/k", "v0")
	tx := s.Begin(Dom0)
	// Outside the tx the value changes.
	s.Write(Dom0, nil, "/tool/k", "v1")
	// The tx still sees its snapshot.
	if got, _ := s.Read(Dom0, tx, "/tool/k"); got != "v0" {
		t.Fatalf("tx read = %q, want snapshot v0", got)
	}
	tx.Abort()
}

func TestTxWriteVisibility(t *testing.T) {
	s := newTestStore()
	tx := s.Begin(Dom0)
	s.Write(Dom0, tx, "/tool/k", "in-tx")
	// Invisible outside until commit.
	if ok, _ := s.Exists(Dom0, nil, "/tool/k"); ok {
		t.Fatal("tx write visible before commit")
	}
	// Visible inside.
	if got, _ := s.Read(Dom0, tx, "/tool/k"); got != "in-tx" {
		t.Fatal("tx write invisible inside tx")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read(Dom0, nil, "/tool/k"); got != "in-tx" {
		t.Fatal("committed write lost")
	}
}

// TestTxUseAfterEnd: a Tx kept after Abort or Commit answers
// ErrTxClosed to every operation, also once the next Begin has taken the
// log it handed back, and nothing asked of it reaches that transaction.
func TestTxUseAfterEnd(t *testing.T) {
	s := newTestStore()
	for _, end := range []string{"abort", "commit"} {
		tx := s.Begin(Dom0)
		log := tx.log
		if err := s.Write(Dom0, tx, "/tool/kept", end); err != nil {
			t.Fatal(err)
		}
		if end == "abort" {
			tx.Abort()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		next := s.Begin(Dom0)
		if next.log != log {
			t.Fatalf("after %s: the next Begin did not take the log handed back", end)
		}
		closed := func(op string, err error) {
			t.Helper()
			if !errors.Is(err, ErrTxClosed) {
				t.Errorf("%s after %s = %v, want ErrTxClosed", op, end, err)
			}
		}
		_, err := s.Read(Dom0, tx, "/tool/kept")
		closed("Read", err)
		_, err = s.Exists(Dom0, tx, "/tool")
		closed("Exists", err)
		_, err = s.List(Dom0, tx, "/tool")
		closed("List", err)
		_, err = s.GetPerms(Dom0, tx, "/tool")
		closed("GetPerms", err)
		closed("Write", s.Write(Dom0, tx, "/tool/x", "v"))
		closed("WriteRecords", s.WriteRecords(Dom0, tx, "/tool/set", []Record{{"/a", "1"}, {"/b", "2"}}))
		closed("Mkdir", s.Mkdir(Dom0, tx, "/tool/d"))
		closed("Rm", s.Rm(Dom0, tx, "/tool"))
		closed("SetPerms", s.SetPerms(Dom0, tx, "/tool", Perms{Owner: Dom0}))
		closed("Commit", tx.Commit())
		tx.Abort()
		if len(next.recs)+len(next.ops)+len(next.quota) != 0 || next.closed || s.open != 1 {
			t.Fatalf("after %s: the next transaction holds %d records, %d ops, %d quota steps (closed %v, %d open)",
				end, len(next.recs), len(next.ops), len(next.quota), next.closed, s.open)
		}
		next.Abort()
	}
	if got, err := s.Read(Dom0, nil, "/tool/kept"); err != nil || got != "commit" {
		t.Fatalf("/tool/kept = %q, %v; want the committed write", got, err)
	}
}

func TestTxRmThenWrite(t *testing.T) {
	s := newTestStore()
	s.Write(Dom0, nil, "/tool/a/b", "old")
	tx := s.Begin(Dom0)
	if err := s.Rm(Dom0, tx, "/tool/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(Dom0, tx, "/tool/a/b", "new"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read(Dom0, nil, "/tool/a/b"); got != "new" {
		t.Fatalf("rm-then-write = %q", got)
	}
}

func TestStatsCounting(t *testing.T) {
	s := newTestStore()
	before := s.Stats()
	s.Write(Dom0, nil, "/tool/x", "v")
	s.Read(Dom0, nil, "/tool/x")
	after := s.Stats()
	if after.Ops != before.Ops+2 {
		t.Fatalf("ops delta = %d", after.Ops-before.Ops)
	}
	if after.Commits != before.Commits+1 {
		t.Fatalf("commits delta = %d", after.Commits-before.Commits)
	}
}

func TestWatchTrailingSlash(t *testing.T) {
	// "/tool/" is a legal spelling of "/tool"; a watch registered with it
	// must keep firing after its registration event.
	s := newTestStore()
	var fired []string
	if _, err := s.WatchPath(Dom0, "/tool/", "t", func(p, _ string) { fired = append(fired, p) }); err != nil {
		t.Fatal(err)
	}
	s.Write(Dom0, nil, "/tool/x", "v")
	want := []string{"/tool", "/tool/x", "/tool/x"} // registration, create, value
	if !slices.Equal(fired, want) {
		t.Fatalf("events = %v, want %v", fired, want)
	}
}

func TestRmTrailingSlashRecordsParent(t *testing.T) {
	// Rm("/tool/a/b/") must note a child of /tool/a touched, not record
	// /tool/a/b as its own parent, and must fire the canonical path.
	s := NewStore(JitsuReconciler{})
	s.Write(Dom0, nil, "/tool/a/b", "v")
	var fired []string
	s.WatchPath(Dom0, "/tool/a", "t", func(p, _ string) { fired = append(fired, p) })
	tx := s.Begin(Dom0)
	if err := s.Rm(Dom0, tx, "/tool/a/b/"); err != nil {
		t.Fatal(err)
	}
	if r := tx.rec(xpath{s: "/tool/a"}); !r.childTouched {
		t.Fatalf("parent /tool/a not recorded as child-touched: %+v", tx.recs)
	}
	if r := tx.rec(xpath{s: "/tool/a/b"}); !r.removed || r.childTouched {
		t.Fatalf("/tool/a/b record = %+v, want removed only", r)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"/tool/a", "/tool/a/b"}; !slices.Equal(fired, want) {
		t.Fatalf("events = %v, want %v", fired, want)
	}
}

func TestWatchListChangesDuringDelivery(t *testing.T) {
	// A delivery walks the list as it stood when the event's turn came: a
	// watch registered by a callback misses that event and gets the
	// next; one unregistered by a callback is skipped from then on; its
	// neighbours are neither skipped nor called twice.
	s := newTestStore()
	var got []string
	logTo := func(name string) WatchFn {
		return func(p, _ string) { got = append(got, name+":"+p) }
	}
	var b *Watch
	registered := false
	s.WatchPath(Dom0, "/tool", "a", func(p, _ string) {
		got = append(got, "a:"+p)
		if p == "/tool/k" && !registered {
			registered = true
			s.Unwatch(b)
			s.WatchPath(Dom0, "/tool", "d", logTo("d"))
		}
	})
	b, _ = s.WatchPath(Dom0, "/tool", "b", logTo("b"))
	s.WatchPath(Dom0, "/tool", "c", logTo("c"))
	got = nil
	s.Write(Dom0, nil, "/tool/k", "v") // two events: created, value written
	want := []string{"a:/tool/k", "d:/tool", "c:/tool/k", "a:/tool/k", "c:/tool/k", "d:/tool/k"}
	if !slices.Equal(got, want) {
		t.Fatalf("deliveries = %v\nwant         %v", got, want)
	}
	if n := len(s.watches); n != 3 {
		t.Fatalf("%d watches registered, want 3", n)
	}
}

// A writer that copies a directory moves its children into the copy's
// own inline array (or its own heap slice): a child written on one side
// of a snapshot must never show on another. The directories straddle
// the four children a node keeps inline; the last one grew to six and
// was cut back to three, so its children sit on the heap with room to
// spare and its copy's fit inline.
func TestCopiedDirectoryOwnsItsChildren(t *testing.T) {
	type dir struct{ grow, rm int }
	var dirs []dir
	for n := 0; n <= 6; n++ {
		dirs = append(dirs, dir{grow: n})
	}
	dirs = append(dirs, dir{grow: 6, rm: 3})
	for _, d := range dirs {
		t.Run(fmt.Sprintf("grow=%d,rm=%d", d.grow, d.rm), func(t *testing.T) {
			s := NewStore(JitsuReconciler{})
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(s.Mkdir(Dom0, nil, "/tool/d"))
			var base []string
			for i := 0; i < d.grow; i++ {
				must(s.Write(Dom0, nil, fmt.Sprint("/tool/d/k", i), "v"))
				if i >= d.rm {
					base = append(base, fmt.Sprint("k", i))
				}
			}
			for i := 0; i < d.rm; i++ {
				must(s.Rm(Dom0, nil, fmt.Sprint("/tool/d/k", i)))
			}
			list := func(side string, tx *Tx, extra ...string) {
				t.Helper()
				got, err := s.List(Dom0, tx, "/tool/d")
				if want := slices.Concat(base, extra); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s lists %v (%v), want %v", side, got, err, want)
				}
			}
			snap, tx := s.Begin(Dom0), s.Begin(Dom0)
			must(s.Write(Dom0, tx, "/tool/d/tx", "v"))
			must(s.Write(Dom0, nil, "/tool/d/live", "v"))
			list("snapshot", snap)
			list("transaction", tx, "tx")
			list("live tree", nil, "live")
		})
	}
}

// A directory that outgrows its inline array clears it: a child removed
// later must not stay reachable through a stale slot.
func TestRemovedChildIsNotKeptInline(t *testing.T) {
	s := NewStore(JitsuReconciler{})
	for i := 0; i < 5; i++ {
		if err := s.Write(Dom0, nil, fmt.Sprint("/tool/d/k", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	var collected atomic.Bool // cleanups run on their own goroutine
	runtime.AddCleanup(lookup(s.root, xpath{s: "/tool/d/k0"}), func(c *atomic.Bool) { c.Store(true) }, &collected)
	if err := s.Rm(Dom0, nil, "/tool/d/k0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("a child removed from a spilled directory is still reachable")
	}
	runtime.KeepAlive(s) // the store, not only the child, must survive the GCs
}

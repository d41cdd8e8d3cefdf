package xenstore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// node is one entry in the store tree. Two generation counters let the
// reconcilers distinguish "this node's value changed" from "this node's
// set of children changed" — the distinction the Jitsu merge exploits.
type node struct {
	name  string
	value string
	// kids is sorted by name. It starts on kidArr, so a directory of up
	// to four children is one object; a fifth moves it to the heap and
	// empties kidArr.
	kids     []*node
	perms    Perms  // Entries is shared between nodes: never written through
	valueGen uint64 // store seq when value last written (or node created)
	childGen uint64 // store seq when children set last changed
	// edit is the token of the writer (the live tree or a Tx) that made
	// this node; mutCtx.mine says who may mutate it in place. Everyone
	// else copies it first.
	edit   uint64
	kidArr [4]*node
}

// editable returns n if mine, else a copy for the writer holding token
// e: the child slice is
// copied too, as the caller is about to repoint or move one of its
// slots — into the copy's own kidArr when it fits (append moves more to
// the heap), never left on n's.
func (n *node) editable(mine bool, e uint64) *node {
	if mine {
		return n
	}
	c := *n
	c.edit = e
	c.kids = append(c.kidArr[:0], n.kids...)
	return &c
}

// find returns the index of the child called name, or, when there is
// none, the index it would be inserted at.
func (n *node) find(name string) (int, bool) {
	lo, hi := 0, len(n.kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.kids[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.kids) && n.kids[lo].name == name
}

// child returns the child called name, or nil. Most directories hold a
// handful of entries (a domain's keys, a device's), where a scan for
// equality is cheaper than find's ordered comparisons: it is what keeps
// a four-level Read level with the map lookups this tree replaced.
func (n *node) child(name string) *node {
	if len(n.kids) <= 8 {
		for _, ch := range n.kids {
			if ch.name == name {
				return ch
			}
		}
		return nil
	}
	if i, ok := n.find(name); ok {
		return n.kids[i]
	}
	return nil
}

// Stats counts store activity; the Figure 3 driver uses it to verify the
// conflict behaviour that separates the three reconcilers.
type Stats struct {
	Ops       uint64 // individual operations performed (incl. inside transactions)
	Commits   uint64 // successful commits (incl. immediate operations)
	Conflicts uint64 // commits rejected with ErrAgain
	Watches   uint64 // watch events delivered
}

// WatchFn receives watch events: the modified path and the registration
// token. Callbacks run synchronously after the commit that triggered them.
type WatchFn func(path, token string)

// Watch is a registered watch; keep it to Unwatch later.
type Watch struct {
	path  string
	token string
	fn    WatchFn
	dead  bool
}

// Store is a XenStore instance. It is not safe for concurrent use by
// multiple goroutines; the simulation is single-threaded by design.
type Store struct {
	root     *node
	edit     uint64 // the live tree's edit token
	edits    uint64 // last token handed out
	rec      Reconciler
	seq      uint64
	commits  uint64 // total mutating commits, for the C reconciler
	watches  []*Watch
	stats    Stats
	nextTxID uint64
	open     int // transactions begun and not yet committed or aborted
	firing   bool
	pending  []string // watch events queued while already firing
	events   []string // lent to each mutation and commit outside a delivery

	// NodeQuota caps nodes created by each unprivileged domain (Dom0 is
	// exempt); 0 disables the check. Matches xenstored's quota knob.
	NodeQuota int
	owned     map[DomID]int
}

// NewStore creates a store with the given reconciliation engine and the
// standard /local/domain and /conduit top-level directories.
func NewStore(rec Reconciler) *Store {
	s := &Store{
		root:  &node{perms: Perms{Owner: Dom0, Others: AccessRead}, edit: 1},
		edit:  1,
		edits: 1,
		rec:   rec,
		owned: make(map[DomID]int),
	}
	for _, p := range []string{"/tool", "/local", "/local/domain", "/conduit"} {
		if err := s.Mkdir(Dom0, nil, p); err != nil {
			panic(fmt.Sprintf("xenstore: init %s: %v", p, err))
		}
	}
	// Any VM may register a named endpoint under /conduit (§3.2.2).
	// RestrictCreate makes each registration owned by its creator, who
	// then opens read access for resolution.
	if err := s.SetPerms(Dom0, nil, "/conduit", Perms{Owner: Dom0, Others: AccessReadWrite, RestrictCreate: true}); err != nil {
		panic(fmt.Sprintf("xenstore: init /conduit perms: %v", err))
	}
	return s
}

// Reconciler returns the engine the store was built with.
func (s *Store) Reconciler() Reconciler { return s.rec }

// Stats returns a copy of the activity counters.
func (s *Store) Stats() Stats { return s.stats }

// DomainPath returns the standard per-domain subtree root.
func DomainPath(dom DomID) string { return "/local/domain/" + strconv.Itoa(int(dom)) }

// lookup walks root along p's components; returns nil if absent.
func lookup(root *node, p xpath) *node {
	n := root
	for name, pos := "", 1; pos < len(p.s); {
		name, pos = nextPart(p.s, pos)
		if n = n.child(name); n == nil {
			return nil
		}
	}
	return n
}

// ---- Public operations ----
//
// Every operation takes the calling domain and an optional transaction.
// With tx == nil the operation applies immediately (and fires watches);
// inside a transaction it applies to the transaction's snapshot and
// becomes visible only on successful Commit.

// resolve parses path and finds its node in the tree tx reads (the live
// one for nil). A missing node is n == nil, recorded as seen absent.
func (s *Store) resolve(tx *Tx, path string) (p xpath, n *node, err error) {
	s.stats.Ops++
	if p, err = parsePath(path); err != nil {
		return p, nil, err
	}
	root := s.root
	if tx != nil {
		if tx.closed {
			return p, nil, ErrTxClosed
		}
		root = tx.root
	}
	if n = lookup(root, p); n == nil {
		tx.recordAbsent(p)
	}
	return p, n, nil
}

// Read returns the value at path.
func (s *Store) Read(dom DomID, tx *Tx, path string) (string, error) {
	p, n, err := s.resolve(tx, path)
	switch {
	case err != nil:
		return "", err
	case n == nil:
		return "", ErrNotFound
	case !n.perms.CanRead(dom):
		return "", ErrPerm
	}
	tx.recordValueRead(p)
	return n.value, nil
}

// Exists reports whether path names a node readable-or-not by anyone.
// It never returns ErrPerm: existence is not secret in XenStore.
func (s *Store) Exists(dom DomID, tx *Tx, path string) (bool, error) {
	p, n, err := s.resolve(tx, path)
	if err != nil || n == nil {
		return false, err
	}
	tx.recordValueRead(p)
	return true, nil
}

// List returns the sorted child names of a directory.
func (s *Store) List(dom DomID, tx *Tx, path string) ([]string, error) {
	p, n, err := s.resolve(tx, path)
	switch {
	case err != nil:
		return nil, err
	case n == nil:
		return nil, ErrNotFound
	case !n.perms.CanRead(dom):
		return nil, ErrPerm
	}
	tx.recordList(p)
	names := make([]string, len(n.kids))
	for i, ch := range n.kids {
		names[i] = ch.name
	}
	return names, nil
}

// Write sets the value at path, creating the node (and any missing
// intermediate directories) if necessary, as the real daemon does.
func (s *Store) Write(dom DomID, tx *Tx, path, value string) error {
	return s.mutate(dom, tx, path, txOp{kind: opWrite, value: value}, nil)
}

// Record is one entry of a record set: a value and its key, the path
// below the set's base.
type Record struct{ Key, Value string }

// WriteRecords writes a record set under base: one Write(dom, tx,
// base+r.Key, r.Value) per record, in order, stopping at the first
// error; on the live tree each record is its own mutation, with its
// own sequence number and delivery. The set's paths are built as one
// string, and the nodes it creates are taken from one array, sized
// before the first write, so the set should be removed as a unit (see
// the package comment).
func (s *Store) WriteRecords(dom DomID, tx *Tx, base string, recs []Record) error {
	size := 0
	for _, r := range recs {
		size += len(base) + len(r.Key)
	}
	var b strings.Builder
	b.Grow(size)
	for _, r := range recs {
		b.WriteString(base)
		b.WriteString(r.Key)
	}
	paths := b.String()
	slab := make([]node, s.missing(tx, paths, len(base), recs))
	for _, r := range recs {
		n := len(base) + len(r.Key)
		if err := s.mutate(dom, tx, paths[:n], txOp{kind: opWrite, value: r.Value}, &slab); err != nil {
			return err
		}
		paths = paths[n:]
	}
	return nil
}

// missing counts the nodes writing a record set's paths would create in
// the tree tx writes: every component below the deepest one that exists,
// except those the previous record's path passes through, which it
// creates.
func (s *Store) missing(tx *Tx, paths string, baseLen int, recs []Record) int {
	root := s.root
	if tx != nil {
		root = tx.root
	}
	count, prev := 0, ""
	for _, r := range recs {
		p := paths[:baseLen+len(r.Key)]
		paths = paths[len(p):]
		at := root
		for name, pos := "", 1; pos < len(p); {
			name, pos = nextPart(p, pos)
			if at != nil {
				at = at.child(name)
			}
			if at == nil && !IsPrefix(p[:pos-1], prev) {
				count++
			}
		}
		prev = p
	}
	return count
}

// Mkdir creates a directory node (empty value) and missing parents.
// Creating an existing node is a no-op, as in XenStore.
func (s *Store) Mkdir(dom DomID, tx *Tx, path string) error {
	return s.mutate(dom, tx, path, txOp{kind: opMkdir}, nil)
}

// Rm removes path and its whole subtree. Removing a missing node returns
// ErrNotFound; removing the root is forbidden.
func (s *Store) Rm(dom DomID, tx *Tx, path string) error {
	return s.mutate(dom, tx, path, txOp{kind: opRm}, nil)
}

// GetPerms returns the node's permission descriptor.
func (s *Store) GetPerms(dom DomID, tx *Tx, path string) (Perms, error) {
	p, n, err := s.resolve(tx, path)
	switch {
	case err != nil:
		return Perms{}, err
	case n == nil:
		return Perms{}, ErrNotFound
	case !n.perms.CanRead(dom):
		return Perms{}, ErrPerm
	}
	tx.recordValueRead(p)
	return n.perms.clone(), nil
}

// SetPerms replaces the node's permission descriptor. Only the node owner
// or Dom0 may do so.
func (s *Store) SetPerms(dom DomID, tx *Tx, path string, perms Perms) error {
	perms = perms.clone()
	return s.mutate(dom, tx, path, txOp{kind: opSetPerms, perms: &perms}, nil)
}

// ---- mutation plumbing ----

// mutCtx is the context a mutation runs in: the tree it edits and the
// token it edits it with, the transaction recording dependencies (nil
// outside transactions) and the event list for watches (live tree only).
type mutCtx struct {
	s    *Store
	root **node // &s.root or &tx.root
	edit uint64
	tx   *Tx
	gen  uint64 // generation stamped onto modified nodes
	// replay marks a commit applying a transaction's op log to the live
	// tree: permissions and quota were checked against the snapshot, so
	// replay is merge-tolerant — missing parents are recreated, missing
	// rm and SetPerms targets are skipped.
	replay bool
	events []string
}

// mutate parses path and applies op, on dom's behalf, to either the
// transaction snapshot or the live tree, creating nodes from slab (nil
// but for WriteRecords). An immediate mutation that
// changed the tree takes a sequence number and fires watches, even one
// that then failed: a Write whose leaf trips the quota has already
// created the missing parents.
func (s *Store) mutate(dom DomID, tx *Tx, path string, op txOp, slab *[]node) (err error) {
	s.stats.Ops++
	if op.path, err = parsePath(path); err != nil {
		return err
	}
	if op.path == rootPath && op.kind != opSetPerms {
		if op.kind == opMkdir {
			return nil
		}
		return ErrPerm // the root can be neither written nor removed
	}
	if tx != nil {
		if tx.closed {
			return ErrTxClosed
		}
		if dom != tx.dom {
			tx.foreign = true
		}
		m := mutCtx{s: s, root: &tx.root, edit: tx.edit, tx: tx, gen: tx.startSeq + 1}
		return m.apply(dom, &op, slab)
	}
	m := mutCtx{s: s, root: &s.root, edit: s.edit, gen: s.seq + 1, events: s.lendEvents()}
	err = m.apply(dom, &op, slab)
	if err == nil || len(m.events) > 0 {
		s.seq++
		s.commits++
		s.stats.Commits++
		s.fire(m.events)
	}
	return err
}

func (m *mutCtx) apply(dom DomID, op *txOp, slab *[]node) error {
	switch op.kind {
	case opRm:
		return m.rm(dom, op.path)
	case opSetPerms:
		return m.setPerms(dom, op.path, op.perms)
	default:
		return m.write(dom, op.path, op.value, op.kind == opMkdir, op.n, slab)
	}
}

// mine reports whether m may mutate n in place: m made n (the live tree
// after the last Begin, so no snapshot holds it), or m edits the live
// tree while no transaction is open, so there is no snapshot to protect.
func (m *mutCtx) mine(n *node) bool {
	return n.edit == m.edit || m.tx == nil && m.s.open == 0
}

// ownRoot makes the root of m's tree editable by m.
func (m *mutCtx) ownRoot() *node {
	*m.root = (*m.root).editable(m.mine(*m.root), m.edit)
	return *m.root
}

// ownKid makes the i'th child of n, itself editable, editable.
func (m *mutCtx) ownKid(n *node, i int) *node {
	n.kids[i] = n.kids[i].editable(m.mine(n.kids[i]), m.edit)
	return n.kids[i]
}

// own makes the existing node at p editable, with its ancestors.
func (m *mutCtx) own(p xpath) *node {
	n := m.ownRoot()
	for name, pos := "", 1; pos < len(p.s); {
		name, pos = nextPart(p.s, pos)
		i, _ := n.find(name)
		n = m.ownKid(n, i)
	}
	return n
}

// write creates/updates p under m's root, taking ownership of the path
// as it descends. mkdir distinguishes Mkdir (no-op when the node
// exists) from Write (value update). A replayed creation passes the
// node its transaction made for p as adopt, and p's own node, if it has
// to be created, is that object, reset. Every other node it creates is
// the next of WriteRecords' slab, once that is spent a new one. The slab
// travels with the set's writes alone: a watch callback writing during
// the set's delivery makes its own nodes.
func (m *mutCtx) write(dom DomID, p xpath, value string, mkdir bool, adopt *node, slab *[]node) error {
	n := m.ownRoot()
	for name, pos := "", 1; pos < len(p.s); {
		name, pos = nextPart(p.s, pos)
		last := pos > len(p.s)
		j, ok := n.find(name)
		var ch *node
		if !ok {
			// Creating: need write access on the deepest existing parent.
			if !m.replay && !n.perms.CanWrite(dom) {
				return ErrPerm
			}
			childPerms := n.perms
			childPerms.RestrictCreate = false
			if n.perms.RestrictCreate {
				childPerms = restrictedChildPerms(n.perms.Owner, dom)
			}
			// Quota is charged to the node's resulting owner.
			if err := m.chargeQuota(childPerms.Owner); err != nil {
				return err
			}
			switch {
			case adopt != nil && last:
				ch = adopt
			case slab != nil && len(*slab) > 0:
				ch, *slab = &(*slab)[0], (*slab)[1:]
			default:
				ch = new(node)
			}
			*ch = node{name: name, perms: childPerms, valueGen: m.gen, childGen: m.gen, edit: m.edit}
			if cap(n.kids) == 0 {
				n.kids = n.kidArr[:0]
			}
			spill := cap(n.kids) == len(n.kidArr) && len(n.kids) == len(n.kidArr)
			n.kids = slices.Insert(n.kids, j, ch)
			if spill {
				clear(n.kidArr[:]) // so no child removed later stays reachable
			}
			n.childGen = m.gen
			cur := xpath{s: p.s[:pos-1]}
			m.tx.recordCreate(cur, ch)
			m.noteEvent(cur.s)
		} else {
			if last && !mkdir && !m.replay && !n.kids[j].perms.CanWrite(dom) {
				return ErrPerm
			}
			ch = m.ownKid(n, j)
		}
		if last && !mkdir {
			ch.value = value
			ch.valueGen = m.gen
			m.tx.recordValueWrite(p, value)
			m.noteEvent(p.s)
		}
		n = ch
	}
	return nil
}

func (m *mutCtx) rm(dom DomID, p xpath) error {
	n := lookup(*m.root, p)
	if n == nil {
		m.tx.recordAbsent(p)
		return ErrNotFound
	}
	if !m.replay && !n.perms.CanWrite(dom) {
		return ErrPerm
	}
	parent := m.own(p.parent())
	i, _ := parent.find(n.name)
	parent.kids = slices.Delete(parent.kids, i, i+1)
	parent.childGen = m.gen
	m.noteEvent(p.s)
	if m.tx != nil {
		m.tx.recordRemove(p, n)
	} else {
		m.s.releaseSubtree(n)
	}
	return nil
}

// chargeQuota accounts one node creation against owner's quota. Inside
// a transaction the charge is provisional (a step in tx.quota) and
// becomes real at Commit; an aborted transaction never pays.
func (m *mutCtx) chargeQuota(owner DomID) error {
	s := m.s
	if owner == Dom0 {
		return nil
	}
	if !m.replay && s.NodeQuota > 0 {
		charged := s.owned[owner]
		if m.tx != nil {
			for _, q := range m.tx.quota {
				if q.removed == nil && q.owner == owner {
					charged++
				}
			}
		}
		if charged >= s.NodeQuota {
			return ErrQuota
		}
	}
	if m.tx != nil {
		m.tx.quota = append(m.tx.quota, quotaStep{owner: owner})
	} else {
		s.owned[owner]++
	}
	return nil
}

// releaseSubtree returns quota for every node in a removed subtree.
func (s *Store) releaseSubtree(n *node) {
	if n.perms.Owner != Dom0 {
		if c := s.owned[n.perms.Owner]; c > 0 {
			s.owned[n.perms.Owner] = c - 1
		}
	}
	for _, ch := range n.kids {
		s.releaseSubtree(ch)
	}
}

// OwnedNodes reports how many nodes dom has created (diagnostics).
func (s *Store) OwnedNodes(dom DomID) int { return s.owned[dom] }

func (m *mutCtx) setPerms(dom DomID, p xpath, perms *Perms) error {
	n := lookup(*m.root, p)
	if n == nil {
		m.tx.recordAbsent(p)
		return ErrNotFound
	}
	if !m.replay && dom != Dom0 && dom != n.perms.Owner {
		return ErrPerm
	}
	n = m.own(p)
	n.perms = *perms
	n.valueGen = m.gen
	m.tx.recordValueWrite(p, n.value)
	m.tx.recordSetPerms(p, perms)
	m.noteEvent(p.s)
	return nil
}

func (m *mutCtx) noteEvent(path string) {
	if m.tx == nil {
		m.events = append(m.events, path)
	}
}

// ---- watches ----

// Special watch paths: the toolstack watches these to learn of domain
// lifecycle events, as in the real protocol.
const (
	SpecialIntroduceDomain = "@introduceDomain"
	SpecialReleaseDomain   = "@releaseDomain"
)

// FireSpecial delivers a special event (domain introduced/released) to
// its watchers.
func (s *Store) FireSpecial(name string) {
	s.fire(append(s.lendEvents(), name))
}

// WatchPath registers fn for changes at or below path. Per the XenStore
// protocol, the watch fires once immediately upon registration so the
// watcher can never miss an update that raced with registration.
// The special paths @introduceDomain and @releaseDomain may be watched;
// they fire via FireSpecial.
func (s *Store) WatchPath(dom DomID, path, token string, fn WatchFn) (*Watch, error) {
	if path != SpecialIntroduceDomain && path != SpecialReleaseDomain {
		p, err := parsePath(path)
		if err != nil {
			return nil, err
		}
		path = p.s
	}
	w := &Watch{path: path, token: token, fn: fn}
	s.watches = append(s.watches, w)
	s.stats.Watches++
	fn(path, token)
	return w, nil
}

// Unwatch removes a previously registered watch.
func (s *Store) Unwatch(w *Watch) {
	if w == nil || w.dead {
		return
	}
	w.dead = true
	// A delivery may be iterating the list (this may be one of its
	// callbacks): leave the array be and swap in a shortened copy.
	if i := slices.Index(s.watches, w); i >= 0 {
		s.watches = slices.Concat(s.watches[:i], s.watches[i+1:])
	}
}

// lendEvents hands a mutation, commit or special event the store's event
// list to fill, and fire takes it back; one made during a delivery,
// which is still reading that list, starts a list of its own.
func (s *Store) lendEvents() []string {
	if s.firing {
		return nil
	}
	return s.events
}

// fire delivers watch events for the given modified paths. Callbacks may
// mutate the store (conduit does); events generated while firing are
// queued and delivered afterwards to keep delivery ordered.
func (s *Store) fire(paths []string) {
	if len(paths) == 0 {
		return
	}
	if s.firing {
		s.pending = append(s.pending, paths...)
		return
	}
	s.firing = true
	for i := 0; i < len(paths); i++ {
		// Callbacks may register/unregister watches: WatchPath only
		// appends past this slice's end and Unwatch replaces the list,
		// so the slice ranged over is a stable snapshot.
		for _, w := range s.watches {
			if !w.dead && IsPrefix(w.path, paths[i]) {
				s.stats.Watches++
				w.fn(paths[i], w.token)
			}
		}
		if len(s.pending) > 0 {
			paths = append(paths, s.pending...)
			s.pending = s.pending[:0]
		}
	}
	s.firing = false
	clear(paths) // keep no path alive
	s.events = paths[:0]
}

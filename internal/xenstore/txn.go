package xenstore

// accessRecord accumulates what a transaction depended on at one path.
// The reconcilers interpret these flags differently — that is the whole
// difference between the three xenstored implementations of Figure 3.
type accessRecord struct {
	path         xpath // for Check's lookup
	existed      bool  // node existed in the snapshot at first access
	sawAbsent    bool  // tx observed the path missing
	valueRead    bool  // tx read the node's value (or perms)
	valueWritten bool  // tx wrote the node's value (or perms)
	listed       bool  // tx listed the node's children explicitly
	childTouched bool  // tx created/removed a child of this node
	created      bool  // tx created this node
	removed      bool  // tx removed this node
}

// txOp is one mutation: what a public operation asks of mutCtx.apply
// and, logged by a transaction, what Commit replays onto the live tree
// on the opening domain's behalf.
type txOp struct {
	kind  opKind
	path  xpath
	value string
	perms *Perms // opSetPerms only; never written through
	n     *node  // opMkdir only: the node the transaction created
}

type opKind uint8

const (
	opWrite opKind = iota
	opMkdir
	opRm
	opSetPerms
)

// quotaStep is one step of a transaction's quota accounting, settled by
// a fast-forward commit in the order replay would: a node created for
// owner (never Dom0, who is exempt) or, when removed is set, a subtree
// whose nodes go back to their owners.
type quotaStep struct {
	owner   DomID
	removed *node
}

// Inline room: a domain build touches 18 paths and logs 29 operations.
const txRecs, txOps = 24, 32

// Tx is an open transaction: the root the live tree had at Begin —
// shared, not copied; the transaction's own writes path-copy away from
// it under the transaction's edit token — plus the dependency records
// and the operation log to replay at Commit, whose creations a merging
// Commit installs as the very nodes the transaction made. Records, log
// and quota steps start on arrays inside the Tx; a record is found by
// scanning recs until they outgrow theirs, from then on through index,
// built once over the records made so far. A closed Tx lets go of every
// node.
type Tx struct {
	ID       uint64
	st       *Store
	dom      DomID
	base     *node // the live root at Begin; root until the first write
	root     *node
	edit     uint64
	startSeq uint64 // store seq at Begin: any node gen beyond this is concurrent
	startCom uint64 // store commit count at Begin (for the C reconciler)
	closed   bool
	// foreign: written through by a domain other than the opener, whom
	// replay acts as, so the tree is not what replay builds.
	foreign bool
	recs    []accessRecord
	index   map[string]int32 // path to position in recs, once past txRecs
	ops     []txOp
	quota   []quotaStep // provisional charges and releases, real at Commit

	recArr   [txRecs]accessRecord
	opArr    [txOps]txOp
	quotaArr [4]quotaStep
}

// Begin opens a transaction for dom. The transaction sees a stable
// snapshot of the store; Commit applies it atomically or fails with
// ErrAgain. Begin costs the same whatever the store holds: it captures
// the root, counts the transaction open and gives it and the live tree
// a fresh edit token each, so while the transaction is open every node
// reachable from that root belongs to neither side and whichever writes
// next copies what it touches (mutCtx.mine).
func (s *Store) Begin(dom DomID) *Tx {
	s.nextTxID++
	s.open++
	s.edits += 2
	s.edit = s.edits
	t := &Tx{
		ID:       s.nextTxID,
		st:       s,
		dom:      dom,
		base:     s.root,
		root:     s.root,
		edit:     s.edits - 1,
		startSeq: s.seq,
		startCom: s.commits,
	}
	t.recs, t.ops, t.quota = t.recArr[:0], t.opArr[:0], t.quotaArr[:0]
	return t
}

// Abort discards the transaction; aborting a closed one does nothing.
func (t *Tx) Abort() {
	if !t.closed {
		t.closed = true
		t.st.open--
		t.release()
	}
}

// release lets go of every node, so a closed Tx kept pins nothing.
func (t *Tx) release() {
	t.base, t.root = nil, nil
	for i := range t.ops {
		t.ops[i].n = nil
	}
	clear(t.quota)
}

// fastForward reports whether the transaction's tree is what replaying
// its log would build: the live root is the pointer Begin captured (any
// live write since has copied or replaced it, this transaction being
// open) and no sequence number went by meanwhile (a commit
// whose every target had gone takes one and writes nothing, and this
// transaction's nodes are stamped for the one after startSeq).
func (t *Tx) fastForward() bool {
	return t.st.root == t.base && t.st.seq == t.startSeq && !t.foreign
}

// Commit attempts to apply the transaction. On conflict it returns
// ErrAgain and the caller must redo the transaction from Begin, exactly
// like the EAGAIN loop in the real toolstack. A commit the reconciler
// passes has one of two outcomes, alike in everything observable.
// Fast-forward: the transaction's tree becomes the live tree and one
// event fires per logged operation. Merge: the log is replayed onto the
// live tree, recreating parents and skipping targets that have gone.
func (t *Tx) Commit() error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	t.st.open--
	defer t.release()
	s := t.st
	if err := s.rec.Check(s, t); err != nil {
		s.stats.Conflicts++
		return err
	}
	if len(t.ops) == 0 {
		return nil // read-only transactions always succeed once checked
	}
	events := s.lendEvents()
	if t.fastForward() {
		s.root = t.root
		for _, q := range t.quota {
			if q.removed != nil {
				s.releaseSubtree(q.removed)
			} else {
				s.owned[q.owner]++
			}
		}
		for i := range t.ops {
			events = append(events, t.ops[i].path.s)
		}
	} else {
		m := mutCtx{s: s, root: &s.root, edit: s.edit, gen: s.seq + 1, replay: true, events: events}
		for i := range t.ops {
			_ = m.apply(t.dom, &t.ops[i], nil) // ErrNotFound only: the target is gone, skip
		}
		events = m.events
	}
	s.seq++
	s.commits++
	s.stats.Commits++
	s.fire(events)
	return nil
}

// ---- dependency recording (all nil-receiver safe: immediate operations
// pass a nil *Tx and record nothing) ----

// rec returns p's record, made on first use; good until the next call.
func (t *Tx) rec(p xpath) *accessRecord {
	if t.index != nil {
		if i, ok := t.index[p.s]; ok {
			return &t.recs[i]
		}
	} else {
		for i := range t.recs {
			if t.recs[i].path.s == p.s {
				return &t.recs[i]
			}
		}
		if len(t.recs) == txRecs {
			t.index = make(map[string]int32, 2*txRecs)
			for i := range t.recs {
				t.index[t.recs[i].path.s] = int32(i)
			}
		}
	}
	if t.index != nil {
		t.index[p.s] = int32(len(t.recs))
	}
	t.recs = append(t.recs, accessRecord{path: p})
	return &t.recs[len(t.recs)-1]
}

func (t *Tx) recordValueRead(p xpath) {
	if t == nil {
		return
	}
	r := t.rec(p)
	r.existed = true
	r.valueRead = true
}

func (t *Tx) recordAbsent(p xpath) {
	if t == nil {
		return
	}
	t.rec(p).sawAbsent = true
}

func (t *Tx) recordList(p xpath) {
	if t == nil {
		return
	}
	r := t.rec(p)
	r.existed = true
	r.listed = true
}

// recordValueWrite notes that the snapshot's node at p now holds value.
func (t *Tx) recordValueWrite(p xpath, value string) {
	if t == nil {
		return
	}
	r := t.rec(p)
	r.valueWritten = true
	r.existed = true // the snapshot holds the node by now
	t.logOp(txOp{kind: opWrite, path: p, value: value})
}

// recordCreate notes that the snapshot gained n at p.
func (t *Tx) recordCreate(p xpath, n *node) {
	if t == nil {
		return
	}
	t.rec(p).created = true
	t.rec(p.parent()).childTouched = true
	t.logOp(txOp{kind: opMkdir, path: p, n: n})
}

// recordRemove notes that the snapshot lost the subtree n at p.
func (t *Tx) recordRemove(p xpath, n *node) {
	t.rec(p).removed = true
	t.rec(p.parent()).childTouched = true
	t.logOp(txOp{kind: opRm, path: p})
	t.quota = append(t.quota, quotaStep{removed: n})
}

func (t *Tx) recordSetPerms(p xpath, perms *Perms) {
	if t == nil {
		return
	}
	t.logOp(txOp{kind: opSetPerms, path: p, perms: perms})
}

// logOp appends to the replay log, folding consecutive writes to the same
// path (the last value wins, matching snapshot semantics).
func (t *Tx) logOp(op txOp) {
	if op.kind == opWrite {
		for i := len(t.ops) - 1; i >= 0; i-- {
			prev := &t.ops[i]
			if prev.path.s == op.path.s && prev.kind == opWrite {
				prev.value = op.value
				return
			}
			if prev.kind == opRm && IsPrefix(prev.path.s, op.path.s) {
				break // write after rm must be a fresh op
			}
		}
	}
	t.ops = append(t.ops, op)
}

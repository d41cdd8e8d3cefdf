package xenstore

// accessRecord accumulates what a transaction depended on at one path.
// The reconcilers interpret these flags differently — that is the whole
// difference between the three xenstored implementations of Figure 3.
type accessRecord struct {
	parts        []string // the path's components, for Check's lookup
	existed      bool     // node existed in the snapshot at first access
	sawAbsent    bool     // tx observed the path missing
	valueRead    bool     // tx read the node's value (or perms)
	valueWritten bool     // tx wrote the node's value (or perms)
	listed       bool     // tx listed the node's children explicitly
	childTouched bool     // tx created/removed a child of this node
	created      bool     // tx created this node
	removed      bool     // tx removed this node
}

// txOp is one mutation: what a public operation asks of mutCtx.apply
// and, logged by a transaction, what Commit replays onto the live tree.
type txOp struct {
	kind  opKind
	path  xpath
	value string
	perms Perms
	dom   DomID
}

type opKind uint8

const (
	opWrite opKind = iota
	opMkdir
	opRm
	opSetPerms
)

// Tx is an open transaction: the root the live tree had at Begin —
// shared, not copied; the transaction's own writes path-copy away from
// it under the transaction's edit token — plus the dependency records
// and the operation log to replay at Commit.
type Tx struct {
	ID       uint64
	st       *Store
	dom      DomID
	root     *node
	edit     uint64
	startSeq uint64 // store seq at Begin: any node gen beyond this is concurrent
	startCom uint64 // store commit count at Begin (for the C reconciler)
	access   map[string]*accessRecord
	ops      []txOp
	closed   bool
	// created holds provisional per-owner quota charges for nodes this
	// transaction creates; they become real at replay.
	created map[DomID]int
}

// Begin opens a transaction for dom. The transaction sees a stable
// snapshot of the store; Commit applies it atomically or fails with
// ErrAgain. Begin costs the same whatever the store holds: it captures
// the root and gives the transaction and the live tree a fresh edit
// token each, so every node reachable from that root now belongs to
// neither and whichever side writes next copies what it touches.
func (s *Store) Begin(dom DomID) *Tx {
	s.nextTxID++
	s.edits += 2
	s.edit = s.edits
	return &Tx{
		ID:       s.nextTxID,
		st:       s,
		dom:      dom,
		root:     s.root,
		edit:     s.edits - 1,
		startSeq: s.seq,
		startCom: s.commits,
		access:   make(map[string]*accessRecord),
	}
}

// Dom returns the domain that opened the transaction.
func (t *Tx) Dom() DomID { return t.dom }

// Ops returns the number of mutations logged so far (cost accounting).
func (t *Tx) Ops() int { return len(t.ops) }

// Abort discards the transaction.
func (t *Tx) Abort() {
	t.closed = true
}

// Commit attempts to apply the transaction. On conflict it returns
// ErrAgain and the caller must redo the transaction from Begin, exactly
// like the EAGAIN loop in the real toolstack.
func (t *Tx) Commit() error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	s := t.st
	if err := s.rec.Check(s, t); err != nil {
		s.stats.Conflicts++
		return err
	}
	if len(t.ops) == 0 {
		return nil // read-only transactions always succeed once checked
	}
	s.seq++
	m := mutCtx{s: s, root: &s.root, edit: s.edit, gen: s.seq, replay: true}
	for i := range t.ops {
		_ = m.apply(&t.ops[i]) // ErrNotFound only: the target is gone, skip
	}
	s.commits++
	s.stats.Commits++
	s.fire(m.events)
	return nil
}

// ---- dependency recording (all nil-receiver safe: immediate operations
// pass a nil *Tx and record nothing) ----

func (t *Tx) rec(p xpath) *accessRecord {
	r := t.access[p.s]
	if r == nil {
		r = &accessRecord{parts: p.parts}
		t.access[p.s] = r
	}
	return r
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
	t.logOp(txOp{kind: opWrite, path: p, value: value, dom: t.dom})
}

func (t *Tx) recordCreate(p xpath) {
	if t == nil {
		return
	}
	t.rec(p).created = true
	t.rec(p.parent()).childTouched = true
	t.logOp(txOp{kind: opMkdir, path: p, dom: t.dom})
}

func (t *Tx) recordRemove(p xpath) {
	if t == nil {
		return
	}
	t.rec(p).removed = true
	t.rec(p.parent()).childTouched = true
	t.logOp(txOp{kind: opRm, path: p, dom: t.dom})
}

func (t *Tx) recordSetPerms(p xpath, perms Perms) {
	if t == nil {
		return
	}
	t.logOp(txOp{kind: opSetPerms, path: p, perms: perms, dom: t.dom})
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

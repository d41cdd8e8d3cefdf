package xenstore

// Reconciler decides whether a transaction may commit against the
// store's current state. The three implementations reproduce the three
// xenstored variants of Figure 3.
type Reconciler interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Check returns nil to allow the commit or ErrAgain to force a retry.
	Check(s *Store, tx *Tx) error
}

// CReconciler models the default C xenstored with filesystem-based
// transactions: a transaction aborts if *any* other commit landed while
// it was open. This is what makes parallel VM starts collapse into a
// retry storm in Figure 3 — every successful domain-build commit aborts
// every other in-flight transaction.
type CReconciler struct{}

// Name implements Reconciler.
func (CReconciler) Name() string { return "C xenstored" }

// Check implements Reconciler.
func (CReconciler) Check(s *Store, tx *Tx) error {
	if s.commits != tx.startCom {
		return ErrAgain
	}
	return nil
}

// OCamlReconciler models oxenstored's in-memory transactions with merge
// functions [Gazagnaire & Hanquez 2009]: only the nodes a transaction
// actually touched are compared, so disjoint transactions merge. But a
// node's child-set counts as part of the node — two transactions creating
// different children under the same directory (every parallel domain
// build does, under /local/domain and the dom0 backend directories)
// still conflict.
type OCamlReconciler struct{}

// Name implements Reconciler.
func (OCamlReconciler) Name() string { return "OCaml xenstored" }

// Check implements Reconciler.
func (OCamlReconciler) Check(s *Store, tx *Tx) error {
	for _, r := range tx.recs {
		n := lookup(s.root, r.path)
		if err := checkExistence(n, &r); err != nil {
			return err
		}
		if n == nil {
			continue
		}
		touched := r.valueRead || r.valueWritten || r.listed || r.childTouched ||
			r.created || r.removed
		if !touched {
			continue
		}
		// Any concurrent change to a touched node conflicts: value or
		// children alike.
		if n.valueGen > tx.startSeq || n.childGen > tx.startSeq {
			return ErrAgain
		}
	}
	return nil
}

// JitsuReconciler is the paper's custom merge: directory child-set
// changes under common roots merge silently. A conflict needs one of:
//
//   - a value this transaction read or wrote was changed concurrently;
//   - a directory this transaction explicitly listed changed membership;
//   - the same leaf was created or removed by both sides;
//   - a node this transaction removed was modified concurrently.
//
// Parallel domain builds touch shared directories only by creating
// disjoint children, so they all merge — the flat line in Figure 3.
type JitsuReconciler struct{}

// Name implements Reconciler.
func (JitsuReconciler) Name() string { return "Jitsu xenstored" }

// Check implements Reconciler.
func (JitsuReconciler) Check(s *Store, tx *Tx) error {
	for _, r := range tx.recs {
		n := lookup(s.root, r.path)
		// Creation merge: if the tx created this node, it conflicts only
		// when somebody else also created it concurrently.
		if r.created {
			if n != nil && (n.valueGen > tx.startSeq || n.childGen > tx.startSeq) {
				return ErrAgain
			}
			continue
		}
		if err := checkExistence(n, &r); err != nil {
			return err
		}
		if n == nil {
			continue
		}
		if (r.valueRead || r.valueWritten) && n.valueGen > tx.startSeq {
			return ErrAgain
		}
		if r.listed && n.childGen > tx.startSeq {
			return ErrAgain
		}
		if r.removed && (n.valueGen > tx.startSeq || n.childGen > tx.startSeq) {
			return ErrAgain
		}
		// r.childTouched alone (created/removed a child) does NOT
		// conflict: this is the common-directory-root merge.
	}
	return nil
}

// checkExistence flags snapshot-vs-now existence flips for nodes the
// transaction depended on.
func checkExistence(n *node, r *accessRecord) error {
	switch {
	case r.created || r.removed:
		// Structural ops get their own rules in the callers.
		return nil
	case r.sawAbsent && !r.existed && n != nil:
		// Tx saw the path missing; it exists now.
		return ErrAgain
	case r.existed && n == nil:
		// Tx depended on the node; it is gone now.
		return ErrAgain
	}
	return nil
}

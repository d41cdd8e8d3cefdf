// Package xenstore implements the XenStore hierarchical, transactional
// key-value store shared between all VMs on a host (§3.1 of the paper).
//
// The store supports three transaction-reconciliation engines, matching
// the three xenstored implementations compared in Figure 3:
//
//   - CReconciler: the default C xenstored with filesystem-style
//     transactions — any concurrent commit aborts the transaction.
//   - OCamlReconciler: oxenstored's in-memory transactions with per-node
//     comparison — transactions conflict when they touch the same node,
//     including sibling creations under a shared directory.
//   - JitsuReconciler: the paper's fork — a custom merge function that
//     handles common directory roots, so transactions creating disjoint
//     children under the same parent merge instead of aborting.
//
// The tree is persistent, as in the paper's Irmin-backed xenstored: a
// transaction's snapshot is the root pointer it captured at Begin, and
// every version of the tree shares the nodes no writer has touched
// since. One rule keeps them apart. Each node carries the edit token of
// the writer that made it; the live tree and every open transaction
// hold a token of their own, and Begin hands out two fresh ones. A
// transaction mutates in place only what carries its token. The live
// tree does the same while a transaction is open — what it made since
// the last Begin lies in no snapshot — and edits everything in place
// once none is, there being no snapshot to protect. A writer that may
// not mutate a node copies it first, so a write copies the
// root-to-leaf path the first time that writer passes and mutates in
// place afterwards. A node keeps up to four name-sorted children in an
// array inside itself, and its copy takes them into its own, so
// copying a small directory is one object; a larger one's child slice
// lives on the heap and is copied beside it. Permission entries are
// immutable once on a node and shared.
//
// The nodes a record set creates (WriteRecords) are one array, sized
// before the set's first write by counting the components missing from
// the tree. The array lives while any of its nodes does, so only a set
// that is removed as a unit — a domain's records, which its destroy
// transaction removes; Synjitsu's handed-off TCBs — should be written
// as one: a node that outlives the rest of its set keeps all of them.
//
// The same rule makes a commit whose base has not moved a fast-forward,
// as in Irmin, not a merge. While the transaction is open a live write
// edits in place only a root made since its Begin, so while the live
// root is still the pointer the transaction captured, nothing has
// written the live tree and the transaction's tree is what replaying
// its log would build. Commit, once the reconciler's Check
// has passed, installs it as the live tree, settles the quota steps in
// order and fires one watch event per logged operation, as replay does
// on an unmoved base. For the generation stamps to agree a transaction
// stamps its writes startSeq+1, the number that commit takes; nothing
// reads a snapshot's stamps. Otherwise — and whenever a domain other
// than the opener wrote through the transaction, since replay acts as
// the opener — the log is replayed onto the live tree, and each node
// the transaction created is the object replay installs.
//
// A path is its canonical string, validated in one pass; tree walks cut
// the components off it in place, so no operation allocates for a path.
//
// The package is pure logic (no simulated time); callers charge per-op
// costs on their own clocks.
package xenstore

import (
	"errors"
	"strings"
)

// Errors returned by store operations. They mirror the errno values the
// real wire protocol uses (ENOENT, EACCES, EAGAIN, EINVAL).
var (
	// ErrNotFound is returned when a path or its parent does not exist.
	ErrNotFound = errors.New("xenstore: no such node (ENOENT)")
	// ErrPerm is returned when the calling domain lacks access.
	ErrPerm = errors.New("xenstore: permission denied (EACCES)")
	// ErrAgain is returned by Commit when the transaction conflicts and
	// must be retried from scratch.
	ErrAgain = errors.New("xenstore: transaction conflict, retry (EAGAIN)")
	// ErrBadPath is returned for malformed paths.
	ErrBadPath = errors.New("xenstore: invalid path (EINVAL)")
	// ErrTxClosed is returned when using a committed or aborted transaction.
	ErrTxClosed = errors.New("xenstore: transaction already ended")
	// ErrQuota is returned when an unprivileged domain exceeds its node
	// quota (EQUOTA) — the resource-exhaustion guard multi-tenant hosts
	// need so one guest cannot fill the store.
	ErrQuota = errors.New("xenstore: domain over node quota (EQUOTA)")
)

// MaxPathLen mirrors XENSTORE_ABS_PATH_MAX from the Xen public headers.
const MaxPathLen = 3072

// xpath is a validated absolute path in canonical form (no trailing
// slash). Every operation parses its path once at the API boundary and
// passes this around; walks read the components off it with nextPart.
type xpath struct{ s string }

var rootPath = xpath{s: "/"}

// parsePath validates an absolute path and canonicalises it.
func parsePath(path string) (xpath, error) {
	if path == "" || path[0] != '/' || len(path) > MaxPathLen {
		return xpath{}, ErrBadPath
	}
	if path == "/" {
		return rootPath, nil
	}
	// Trailing slash is tolerated on directories, as in the C daemon.
	path = strings.TrimSuffix(path, "/")
	for start, i := 1, 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			if !validByte(path[i]) {
				return xpath{}, ErrBadPath
			}
			continue
		}
		if i == start || i-start > 256 {
			return xpath{}, ErrBadPath
		}
		start = i + 1
	}
	return xpath{s: path}, nil
}

// nextPart returns the component of canonical path s starting at byte
// pos, and where the next one starts: past len(s) after the last. A
// walk runs `for pos := 1; pos < len(s);`; s[:pos-1] is the path so far.
func nextPart(s string, pos int) (string, int) {
	if i := strings.IndexByte(s[pos:], '/'); i >= 0 {
		return s[pos : pos+i], pos + i + 1
	}
	return s[pos:], len(s) + 1
}

// parent returns the path one level up ("/" for top-level nodes).
func (p xpath) parent() xpath { return xpath{s: ParentPath(p.s)} }

// ParentPath returns the parent of an absolute path ("/" for top-level
// nodes and for the root itself).
func ParentPath(path string) string {
	idx := strings.LastIndexByte(path, '/')
	if idx <= 0 {
		return "/"
	}
	return path[:idx]
}

// Basename returns the final component of an absolute path.
func Basename(path string) string {
	idx := strings.LastIndexByte(path, '/')
	return path[idx+1:]
}

// IsPrefix reports whether watch-path w covers path p in the XenStore
// sense: p equals w or is a descendant of w, component-wise.
func IsPrefix(w, p string) bool {
	if w == "/" {
		return true
	}
	if !strings.HasPrefix(p, w) {
		return false
	}
	return len(p) == len(w) || p[len(w)] == '/'
}

func validByte(ch byte) bool {
	switch {
	case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch >= '0' && ch <= '9':
		return true
	}
	return ch == '-' || ch == '_' || ch == '@' || ch == ':' || ch == '.' || ch == '+'
}

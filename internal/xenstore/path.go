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
// the single writer allowed to mutate it in place; the live tree and
// every open transaction hold a token of their own; Begin retires the
// live tree's token and hands out two fresh ones. A writer that meets a
// node stamped with somebody else's token copies it (and its name-sorted
// child slice) before changing it, so a write copies the root-to-leaf
// path the first time that writer passes and mutates in place
// afterwards — and with no snapshot outstanding nothing is copied at
// all. Permission entries are immutable once on a node and shared.
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

// xpath is a parsed absolute path: the canonical string (no trailing
// slash) and its components, each a substring of it. Every operation
// parses its path once at the API boundary and passes this around.
type xpath struct {
	s     string
	parts []string
}

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
	parts := make([]string, 0, strings.Count(path, "/"))
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
		parts = append(parts, path[start:i])
		start = i + 1
	}
	return xpath{s: path, parts: parts}, nil
}

// prefix returns the path of p's first i components, whose canonical
// string ends at byte end of p's.
func (p xpath) prefix(i, end int) xpath {
	if i == 0 {
		return rootPath
	}
	return xpath{s: p.s[:end], parts: p.parts[:i]}
}

// parent returns the path one level up ("/" for top-level nodes).
func (p xpath) parent() xpath {
	return p.prefix(len(p.parts)-1, strings.LastIndexByte(p.s, '/'))
}

// SplitPath validates an absolute path and returns its components.
// "/" is the root and yields an empty slice.
func SplitPath(path string) ([]string, error) {
	p, err := parsePath(path)
	return p.parts, err
}

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

package xenstore

import (
	"fmt"
	"sort"
	"strings"
)

// refStore is the store this package had before the persistent tree: a
// mutable map-of-children tree that Begin deep-copies, permission
// entries cloned per node, one SplitPath per use, a separate replay. It
// is kept, in tests only, as the model the differential test and
// FuzzStoreModel hold the real store to — slow and obviously isolated.
type refStore struct {
	root         *refNode
	kind         int // 0 C, 1 OCaml, 2 Jitsu
	seq, commits uint64
	stats        Stats
	quota        int
	owned        map[DomID]int
	watches      []*refWatch
	log          []string // delivered watch events, "path|token"
}

type refNode struct {
	value              string
	kids               map[string]*refNode
	perms              Perms
	valueGen, childGen uint64
}

type refWatch struct {
	path, token string
	dead        bool
}

type refTx struct {
	st                 *refStore
	dom                DomID
	root               *refNode
	startSeq, startCom uint64
	access             map[string]*accessRecord
	ops                []refOp
	closed             bool
	created            map[DomID]int
}

type refOp struct {
	kind  opKind
	path  string
	value string
	perms Perms
}

func (n *refNode) clone() *refNode {
	c := &refNode{value: n.value, perms: n.perms.clone(), valueGen: n.valueGen, childGen: n.childGen, kids: map[string]*refNode{}}
	for name, ch := range n.kids {
		c.kids[name] = ch.clone()
	}
	return c
}

func newRefStore(kind int) *refStore {
	s := &refStore{kind: kind, owned: map[DomID]int{},
		root: &refNode{perms: Perms{Owner: Dom0, Others: AccessRead}, kids: map[string]*refNode{}}}
	for _, p := range []string{"/tool", "/local", "/local/domain", "/conduit"} {
		s.mutate(nil, opMkdir, Dom0, p, "", Perms{})
	}
	s.mutate(nil, opSetPerms, Dom0, "/conduit", "", Perms{Owner: Dom0, Others: AccessReadWrite, RestrictCreate: true})
	return s
}

// SplitPath validates an absolute path and returns its components:
// the model's parser, one slice per use. "/" is the root and yields an
// empty slice.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' || len(path) > MaxPathLen {
		return nil, ErrBadPath
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.TrimSuffix(path, "/")[1:], "/")
	for _, part := range parts {
		if part == "" || len(part) > 256 {
			return nil, ErrBadPath
		}
		for i := 0; i < len(part); i++ {
			if !validByte(part[i]) {
				return nil, ErrBadPath
			}
		}
	}
	return parts, nil
}

func refLookup(root *refNode, parts []string) *refNode {
	n := root
	for _, p := range parts {
		if n = n.kids[p]; n == nil {
			return nil
		}
	}
	return n
}

func (t *refTx) rec(path string) *accessRecord {
	if t.access[path] == nil {
		t.access[path] = &accessRecord{}
	}
	return t.access[path]
}

// get is the read half: what selects Read, Exists, List or GetPerms.
func (s *refStore) get(what byte, dom DomID, tx *refTx, path string) (string, error) {
	s.stats.Ops++
	parts, err := SplitPath(path)
	if err != nil {
		return "", err
	}
	root := s.root
	if tx != nil {
		if tx.closed {
			return "", ErrTxClosed
		}
		root = tx.root
	}
	n := refLookup(root, parts)
	if n == nil {
		if tx != nil {
			tx.rec(path).sawAbsent = true
		}
		if what == 'e' {
			return "false", nil
		}
		return "", ErrNotFound
	}
	if what != 'e' && !n.perms.CanRead(dom) {
		return "", ErrPerm
	}
	if tx != nil {
		r := tx.rec(path)
		r.existed = true
		if what == 'l' {
			r.listed = true
		} else {
			r.valueRead = true
		}
	}
	switch what {
	case 'e':
		return "true", nil
	case 'l':
		names := make([]string, 0, len(n.kids))
		for name := range n.kids {
			names = append(names, name)
		}
		sort.Strings(names)
		return strings.Join(names, ","), nil
	case 'p':
		return fmt.Sprint(n.perms), nil
	}
	return n.value, nil
}

// mutate is the write half, for Write, Mkdir, Rm and SetPerms alike.
func (s *refStore) mutate(tx *refTx, kind opKind, dom DomID, path, value string, perms Perms) error {
	s.stats.Ops++
	parts, err := SplitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 && kind != opSetPerms {
		if kind == opMkdir {
			return nil
		}
		return ErrPerm
	}
	if tx != nil && tx.closed {
		return ErrTxClosed
	}
	root, gen := s.root, s.seq+1
	if tx != nil {
		root, gen = tx.root, tx.startSeq
	}
	var events []string
	note := func(p string) {
		if tx == nil {
			events = append(events, p)
		}
	}
	logOp := func(op refOp) {
		if op.kind == opWrite {
			op.value = refLookup(tx.root, mustSplit(op.path)).value
			for i := len(tx.ops) - 1; i >= 0; i-- {
				prev := &tx.ops[i]
				if prev.path == op.path && prev.kind == opWrite {
					prev.value = op.value
					return
				}
				if prev.kind == opRm && IsPrefix(prev.path, op.path) {
					break
				}
			}
		}
		tx.ops = append(tx.ops, op)
	}
	valueWritten := func(p string) {
		if tx != nil {
			r := tx.rec(p)
			r.valueWritten, r.existed = true, true
			logOp(refOp{kind: opWrite, path: p})
		}
	}
	// An immediate mutation that changed the tree before failing still
	// takes a sequence number and fires what it changed.
	finish := func(err error) error {
		if tx == nil && (err == nil || len(events) > 0) {
			s.seq++
			s.commits++
			s.stats.Commits++
			s.fire(events)
		}
		return err
	}
	switch kind {
	case opWrite, opMkdir:
		n, cur := root, ""
		for i, p := range parts {
			cur += "/" + p
			ch, last := n.kids[p], i == len(parts)-1
			if ch == nil {
				if !n.perms.CanWrite(dom) {
					return finish(ErrPerm)
				}
				childPerms := n.perms.clone()
				childPerms.RestrictCreate = false
				if n.perms.RestrictCreate {
					childPerms = restrictedChildPerms(n.perms.Owner, dom)
				}
				if owner := childPerms.Owner; owner != Dom0 {
					delta := 0
					if tx != nil {
						delta = tx.created[owner]
					}
					if s.quota > 0 && s.owned[owner]+delta >= s.quota {
						return finish(ErrQuota)
					}
					if tx != nil {
						tx.created[owner]++
					} else {
						s.owned[owner]++
					}
				}
				ch = &refNode{perms: childPerms, valueGen: gen, childGen: gen, kids: map[string]*refNode{}}
				n.kids[p] = ch
				n.childGen = gen
				if tx != nil {
					tx.rec(cur).created = true
					tx.rec(ParentPath(cur)).childTouched = true
					logOp(refOp{kind: opMkdir, path: cur})
				}
				note(cur)
			} else if last && kind == opWrite && !ch.perms.CanWrite(dom) {
				return finish(ErrPerm)
			}
			if last && kind == opWrite {
				ch.value, ch.valueGen = value, gen
				valueWritten(cur)
				note(cur)
			}
			n = ch
		}
	case opRm:
		parent := refLookup(root, parts[:len(parts)-1])
		name := parts[len(parts)-1]
		if parent == nil || parent.kids[name] == nil {
			if tx != nil {
				tx.rec(path).sawAbsent = true
			}
			return ErrNotFound
		}
		n := parent.kids[name]
		if !n.perms.CanWrite(dom) {
			return ErrPerm
		}
		delete(parent.kids, name)
		parent.childGen = gen
		if tx != nil {
			tx.rec(path).removed = true
			tx.rec(ParentPath(path)).childTouched = true
			logOp(refOp{kind: opRm, path: path})
		} else {
			s.release(n)
		}
		note(path)
	case opSetPerms:
		n := refLookup(root, parts)
		if n == nil {
			if tx != nil {
				tx.rec(path).sawAbsent = true
			}
			return ErrNotFound
		}
		if dom != Dom0 && dom != n.perms.Owner {
			return ErrPerm
		}
		n.perms, n.valueGen = perms.clone(), gen
		valueWritten(path)
		if tx != nil {
			logOp(refOp{kind: opSetPerms, path: path, perms: perms})
		}
		note(path)
	}
	return finish(nil)
}

func mustSplit(path string) []string {
	parts, err := SplitPath(path)
	if err != nil {
		panic(err)
	}
	return parts
}

func (s *refStore) release(n *refNode) {
	if n.perms.Owner != Dom0 && s.owned[n.perms.Owner] > 0 {
		s.owned[n.perms.Owner]--
	}
	for _, ch := range n.kids {
		s.release(ch)
	}
}

func (s *refStore) begin(dom DomID) *refTx {
	return &refTx{st: s, dom: dom, root: s.root.clone(), startSeq: s.seq, startCom: s.commits,
		access: map[string]*accessRecord{}, created: map[DomID]int{}}
}

func (t *refTx) commit() error {
	if t.closed {
		return ErrTxClosed
	}
	t.closed = true
	s := t.st
	if err := s.check(t); err != nil {
		s.stats.Conflicts++
		return err
	}
	if len(t.ops) == 0 {
		return nil
	}
	s.seq++
	gen := s.seq
	var events []string
	for _, op := range t.ops {
		parts := mustSplit(op.path)
		switch op.kind {
		case opWrite, opMkdir:
			n, cur := s.root, ""
			for i, p := range parts {
				cur += "/" + p
				ch := n.kids[p]
				if ch == nil {
					childPerms := n.perms.clone()
					childPerms.RestrictCreate = false
					if n.perms.RestrictCreate {
						childPerms = restrictedChildPerms(n.perms.Owner, t.dom)
					}
					ch = &refNode{perms: childPerms, valueGen: gen, childGen: gen, kids: map[string]*refNode{}}
					n.kids[p] = ch
					n.childGen = gen
					events = append(events, cur)
					if ch.perms.Owner != Dom0 {
						s.owned[ch.perms.Owner]++
					}
				}
				if i == len(parts)-1 && op.kind == opWrite {
					ch.value, ch.valueGen = op.value, gen
					events = append(events, cur)
				}
				n = ch
			}
		case opRm:
			parent := refLookup(s.root, parts[:len(parts)-1])
			name := parts[len(parts)-1]
			if parent == nil || parent.kids[name] == nil {
				continue
			}
			s.release(parent.kids[name])
			delete(parent.kids, name)
			parent.childGen = gen
			events = append(events, op.path)
		case opSetPerms:
			if n := refLookup(s.root, parts); n != nil {
				n.perms, n.valueGen = op.perms.clone(), gen
				events = append(events, op.path)
			}
		}
	}
	s.commits++
	s.stats.Commits++
	s.fire(events)
	return nil
}

// check is the three reconcilers of reconcile.go, by kind.
func (s *refStore) check(t *refTx) error {
	if s.kind == 0 {
		if s.commits != t.startCom {
			return ErrAgain
		}
		return nil
	}
	for path, r := range t.access {
		n := refLookup(s.root, mustSplit(path))
		changed := n != nil && (n.valueGen > t.startSeq || n.childGen > t.startSeq)
		if s.kind == 2 && r.created {
			if changed {
				return ErrAgain
			}
			continue
		}
		if !r.created && !r.removed && (r.sawAbsent && !r.existed && n != nil || r.existed && n == nil) {
			return ErrAgain
		}
		if n == nil {
			continue
		}
		if s.kind == 1 {
			if (r.valueRead || r.valueWritten || r.listed || r.childTouched || r.created || r.removed) && changed {
				return ErrAgain
			}
			continue
		}
		if (r.valueRead || r.valueWritten) && n.valueGen > t.startSeq ||
			r.listed && n.childGen > t.startSeq || r.removed && changed {
			return ErrAgain
		}
	}
	return nil
}

func (s *refStore) watch(path, token string) *refWatch {
	w := &refWatch{path: path, token: token}
	s.watches = append(s.watches, w)
	s.stats.Watches++
	s.log = append(s.log, path+"|"+token)
	return w
}

func (s *refStore) fire(paths []string) {
	for _, p := range paths {
		for _, w := range s.watches {
			if !w.dead && IsPrefix(w.path, p) {
				s.stats.Watches++
				s.log = append(s.log, p+"|"+w.token)
			}
		}
	}
}

// dump renders the tree one node per line, generations included.
func (n *refNode) dump(path string, out *[]string) {
	*out = append(*out, fmt.Sprintf("%s=%q %v v%d c%d", path, n.value, n.perms, n.valueGen, n.childGen))
	names := make([]string, 0, len(n.kids))
	for name := range n.kids {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n.kids[name].dump(strings.TrimSuffix(path, "/")+"/"+name, out)
	}
}

func (n *node) dump(path string, out *[]string) {
	*out = append(*out, fmt.Sprintf("%s=%q %v v%d c%d", path, n.value, n.perms, n.valueGen, n.childGen))
	for _, ch := range n.kids {
		ch.dump(strings.TrimSuffix(path, "/")+"/"+ch.name, out)
	}
}

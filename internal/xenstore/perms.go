package xenstore

// DomID identifies a Xen domain. Domain 0 is the privileged control
// domain and bypasses all permission checks, exactly as in Xen.
type DomID int

// Dom0 is the privileged control domain.
const Dom0 DomID = 0

// Access is the permission a domain holds on a node.
type Access uint8

// Access levels, ordered so that higher values imply more rights for the
// comparisons in allows().
const (
	// AccessNone grants nothing.
	AccessNone Access = iota
	// AccessRead grants read and directory listing.
	AccessRead
	// AccessWrite grants write/create/remove but not read (XenStore's 'w').
	AccessWrite
	// AccessReadWrite grants everything.
	AccessReadWrite
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "r"
	case AccessWrite:
		return "w"
	case AccessReadWrite:
		return "b"
	default:
		return "n"
	}
}

func (a Access) canRead() bool  { return a == AccessRead || a == AccessReadWrite }
func (a Access) canWrite() bool { return a == AccessWrite || a == AccessReadWrite }

// PermEntry grants a specific domain a specific access level.
type PermEntry struct {
	Dom    DomID
	Access Access
}

// Perms is the access-control descriptor of a node. Owner always has full
// access; Others is the default for unlisted domains; Entries override
// Others per domain.
//
// RestrictCreate is the Jitsu extension from §3.2.3: on a directory with
// RestrictCreate set, any domain that can write may create new keys, but
// each new key is readable only by the directory owner and the key's
// creator — analogous to setgid+sticky bits on POSIX directories. This is
// what lets mutually distrusting VMs share the /conduit/<name>/listen
// queue without observing each other's connection attempts.
type Perms struct {
	Owner          DomID
	Others         Access
	Entries        []PermEntry
	RestrictCreate bool
}

// access resolves the effective access of dom on these perms.
func (p Perms) access(dom DomID) Access {
	if dom == Dom0 || dom == p.Owner {
		return AccessReadWrite
	}
	for _, e := range p.Entries {
		if e.Dom == dom {
			return e.Access
		}
	}
	return p.Others
}

// CanRead reports whether dom may read a node with these perms.
func (p Perms) CanRead(dom DomID) bool { return p.access(dom).canRead() }

// CanWrite reports whether dom may write a node with these perms.
func (p Perms) CanWrite(dom DomID) bool { return p.access(dom).canWrite() }

// clone returns a deep copy. Entries is immutable once on a node and
// shared between nodes, so only SetPerms and GetPerms — where a caller's
// slice crosses the API — need one.
func (p Perms) clone() Perms {
	c := p
	if len(p.Entries) > 0 {
		c.Entries = append([]PermEntry(nil), p.Entries...)
	}
	return c
}

// restrictedChildPerms computes the perms a key created inside a
// RestrictCreate directory receives: owned by the creator, readable and
// writable by the directory owner, invisible to everyone else.
func restrictedChildPerms(dirOwner, creator DomID) Perms {
	return Perms{
		Owner:  creator,
		Others: AccessNone,
		Entries: []PermEntry{
			{Dom: dirOwner, Access: AccessReadWrite},
		},
	}
}

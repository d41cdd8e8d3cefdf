package api

import "fmt"

// Scope is a session's capability level on the control plane — the
// least-authority ladder a management-plane credential maps to. Scopes
// nest: each level may issue everything the levels below it may.
//
//	ScopeReadOnly  observe:  Stats, WatchStats
//	ScopeOperator  operate:  + Activate, Demote, Promote, Stop
//	ScopeAdmin     reshape:  + Register, Checkpoint, Restore, Migrate,
//	                           Transfer
//
// The zero value, ScopeNone, authorizes nothing; a server policy that
// grants ScopeNone to anonymous sessions is refusing them.
type Scope uint8

// Capability scopes, in nesting order.
const (
	// ScopeNone authorizes no verb at all (refused sessions).
	ScopeNone Scope = iota
	// ScopeReadOnly may observe the deployment but not change it.
	ScopeReadOnly
	// ScopeOperator may drive the service lifecycle on its current
	// homes (activate, demote, promote, stop) but not reshape the
	// deployment.
	ScopeOperator
	// ScopeAdmin may issue every verb, including the ones that add
	// services or move state between boards and clusters.
	ScopeAdmin
)

func (s Scope) String() string {
	if names := [...]string{"none", "read-only", "operator", "admin"}; int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// Allows reports whether a session holding s may issue a verb that
// requires at least need.
func (s Scope) Allows(need Scope) bool { return need != ScopeNone && s >= need }

// Canonical verb names — the Op field every Errf carries and the keys
// of the verb-scope table. One constant per ControlPlane method.
const (
	VerbRegister   = "register"
	VerbActivate   = "activate"
	VerbCheckpoint = "checkpoint"
	VerbRestore    = "restore"
	VerbMigrate    = "migrate"
	VerbTransfer   = "transfer"
	VerbDemote     = "demote"
	VerbPromote    = "promote"
	VerbStop       = "stop"
	VerbStats      = "stats"
	VerbWatchStats = "watch-stats"
)

// verbs is the control plane's vocabulary, in interface order: each
// ControlPlane method's name and the least scope that may issue it.
var verbs = [...]struct {
	name  string
	scope Scope
}{
	{VerbRegister, ScopeAdmin},
	{VerbActivate, ScopeOperator},
	{VerbCheckpoint, ScopeAdmin},
	{VerbRestore, ScopeAdmin},
	{VerbMigrate, ScopeAdmin},
	{VerbTransfer, ScopeAdmin},
	{VerbDemote, ScopeOperator},
	{VerbPromote, ScopeOperator},
	{VerbStop, ScopeOperator},
	{VerbStats, ScopeReadOnly},
	{VerbWatchStats, ScopeReadOnly},
}

// Verbs lists every ControlPlane verb name, in interface order.
func Verbs() []string {
	out := make([]string, len(verbs))
	for i, v := range verbs {
		out[i] = v.name
	}
	return out
}

// RequiredScope is the minimum capability a session needs to issue the
// named verb. Unknown names require ScopeAdmin, so a verb that misses
// the table fails closed.
func RequiredScope(verb string) Scope {
	for _, v := range verbs {
		if v.name == verb {
			return v.scope
		}
	}
	return ScopeAdmin
}

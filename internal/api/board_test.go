package api

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"jitsu/internal/core"
)

// TestCodeOfIsOneMapForEveryVerb: every core sentinel maps to the same
// api.Code whichever verb hit it. Before the fold each of activate,
// restore (warm and to-disk), transfer, demote and promote had its own
// switch, and three differed — all on errors core cannot return from
// that verb's call: transfer sent ErrNoSuchService to CodeConflict (the
// others CodeNotFound); activate, warm restore, transfer and promote
// sent ErrNoDisk/ErrDiskFull to CodeConflict (demote and restore-to-disk
// CodeUnavailable/CodeNoMemory); demote and restore-to-disk sent
// ErrNoMemory to CodeConflict (the others CodeNoMemory).
func TestCodeOfIsOneMapForEveryVerb(t *testing.T) {
	want := []struct {
		err  error
		code Code
	}{
		{core.ErrNoSuchService, CodeNotFound},
		{core.ErrNoMemory, CodeNoMemory},
		{core.ErrDiskFull, CodeNoMemory},
		{core.ErrNoDisk, CodeUnavailable},
		{core.ErrNotBooted, CodeConflict},
		{core.ErrNotOnDisk, CodeConflict},
		{errors.New("core: restore target not cold"), CodeConflict},
	}
	for _, verb := range []string{VerbActivate, VerbRestore, VerbTransfer, VerbDemote, VerbPromote} {
		if e := codeOf(verb, "alice", nil); e != nil {
			t.Fatalf("%s: no error maps to %v", verb, e)
		}
		for _, w := range want {
			for _, err := range []error{w.err, fmt.Errorf("board 3: %w", w.err)} {
				e := codeOf(verb, "alice", err)
				if e == nil || e.Code != w.code || e.Op != verb || !strings.Contains(e.Detail, "alice") {
					t.Errorf("%s: %v maps to %v, want %v naming the verb and the service", verb, err, e, w.code)
				}
			}
		}
	}
}

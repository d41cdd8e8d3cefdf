package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// TestModesMatchGoldenOutput pins each mode's whole console output — the
// per-request timeline, the counter tables and, in -connect mode, the
// three console-link capture fingerprints, which cover every byte the
// wire protocol put on the management network. A refactor must leave
// every file as it is; a change of behaviour regenerates them with
// go test ./cmd/jitsud -update and says in the PR which lines moved.
func TestModesMatchGoldenOutput(t *testing.T) {
	for name, args := range map[string]string{
		"board":              "-seed 1",
		"board-disk":         "-seed 1 -disk",
		"cluster":            "-seed 1 -boards 4",
		"cluster-loss":       "-seed 1 -boards 4 -loss 0.05",
		"connect":            "-seed 1 -boards 4 -connect",
		"connect-wan50ms":    "-seed 1 -boards 4 -connect -wan wan50ms",
		"federation":         "-seed 1 -boards 4 -clusters 4",
		"federation-wan50ms": "-seed 1 -boards 4 -clusters 4 -wan wan50ms",
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(args), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("jitsud %s: exit %d, stderr %q", args, code, stderr.String())
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("jitsud %s differs from %s:\n%s", args, golden, firstDiff(stdout.String(), string(want)))
			}
			var again bytes.Buffer
			if run(strings.Fields(args), &again, &stderr); !bytes.Equal(again.Bytes(), stdout.Bytes()) {
				t.Errorf("jitsud %s: two runs of one seed differ:\n%s", args, firstDiff(again.String(), stdout.String()))
			}
		})
	}
}

// firstDiff shows the first line two outputs disagree on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "no difference"
}

// TestFlagConflictsExitTwo: a flag combination no mode can honour is
// refused before anything runs, with one line saying why.
func TestFlagConflictsExitTwo(t *testing.T) {
	for args, why := range map[string]string{
		"-connect -boards 1":                "-connect needs cluster mode",
		"-loss 0.1":                         "need cluster mode",
		"-boards 4 -clusters 2 -loss 0.1":   "need cluster mode",
		"-boards 4 -partition 5s,2s":        "bad -partition: heal time 2s is not after cut time 5s",
		"-boards 4 -partition soon":         "bad -partition",
		"-boards 4 -connect -wan nope":      `unknown -wan profile "nope"; presets: wan100ms wan20ms wan50ms`,
		"-boards 4 -wan wan20ms":            "-wan shapes management links in federation mode",
		"-boards 4 -policy nope":            `unknown policy "nope"`,
		"-boards 4 -connect -policy nope":   `unknown policy "nope"`,
		"-boards 4 -clusters 2 -policy bad": `unknown policy "bad"`,
		"-join 5s":                          "-churn/-join/-leave need cluster mode",
		"-boards 4 -clusters 2 -churn":      "apply to cluster mode, not federation mode",
		"-boards 4 -connect -churn":         "-connect runs a scripted operator session",
		"-no-such-flag":                     "flag provided but not defined",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("jitsud %s: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), why) {
			t.Errorf("jitsud %s: stderr %q does not say %q", args, stderr.String(), why)
		}
		if stdout.Len() != 0 {
			t.Errorf("jitsud %s: printed %q before refusing", args, stdout.String())
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.fingerprint and testdata/full.fingerprint from this build's output")

const golden = "testdata/quick.fingerprint"

// bench runs the command and fails the test unless it exits 0 with
// nothing on stderr.
func bench(t *testing.T, args string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(args), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("jitsu-bench %s: exit %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

// matchGolden runs the command and holds its output to the record in
// file (which -update rewrites first), returning the output.
func matchGolden(t *testing.T, args, file string) string {
	t.Helper()
	got := bench(t, args)
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("jitsu-bench %s differs from %s:\n%s", args, file, firstDiff(got, string(want)))
	}
	return got
}

// TestQuickFingerprintsMatchGolden is the determinism referee: two runs
// of -run all -quick -fingerprint must agree byte for byte, and with the
// committed record. A refactor leaves the file as it is; a change meant
// to move an experiment regenerates it with go test ./cmd/jitsu-bench
// -update and says which lines moved and why.
func TestQuickFingerprintsMatchGolden(t *testing.T) {
	const args = "-run all -quick -fingerprint"
	got := matchGolden(t, args, golden)
	if again := bench(t, args); again != got {
		t.Errorf("jitsu-bench %s: two runs differ:\n%s", args, firstDiff(again, got))
	}
}

// TestFullFingerprintsMatchGolden holds the full-scale run to its own
// record: its churn, stampede, federation, prewarm and hostile runs
// migrate, drain and place more than their quick sizes do.
func TestFullFingerprintsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-scale run takes seconds")
	}
	matchGolden(t, "-run all -fingerprint", "testdata/full.fingerprint")
}

// TestRunEachMatchesAll: an experiment run alone prints exactly its
// lines of the -run all record, so the names Run refuses an unknown one
// with are the catalogue, and each entry sizes itself as "all" does.
func TestRunEachMatchesAll(t *testing.T) {
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	run([]string{"-run", "nope"}, &stdout, &stderr)
	_, list, ok := strings.Cut(strings.TrimSpace(stderr.String()), "experiments: ")
	if !ok || !strings.Contains(list, " ablations") {
		t.Fatalf("-run nope does not list the catalogue: %q", stderr.String())
	}
	covered := map[string]bool{}
	for _, name := range strings.Fields(list) {
		if name == "all" || name == "ablations" {
			continue
		}
		got := bench(t, "-run "+name+" -quick -fingerprint")
		ids := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
			ids[strings.Split(line, "\t")[0]] = true
		}
		var mine strings.Builder
		for _, line := range strings.SplitAfter(string(want), "\n") {
			if id := strings.Split(line, "\t")[0]; ids[id] {
				mine.WriteString(line)
				covered[id] = true
			}
		}
		if got != mine.String() {
			t.Errorf("-run %s differs from its lines in %s:\n%s", name, golden, firstDiff(got, mine.String()))
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if id := strings.Split(line, "\t")[0]; !covered[id] {
			t.Errorf("%s: no single -run name prints %q", golden, id)
			covered[id] = true
		}
	}
}

// TestBadFlagsExitTwo: a value the command cannot honour is refused
// before anything runs, with one line saying why.
func TestBadFlagsExitTwo(t *testing.T) {
	for args, why := range map[string]string{
		"-run nope":     `unknown experiment "nope"; experiments: all fig3 `,
		"-boards 0":     `bad -boards: "0" is not a board count`,
		"-boards x":     `bad -boards: "x" is not a board count`,
		"-boards 4,":    `bad -boards: "" is not a board count`,
		"-no-such-flag": "flag provided but not defined",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 2 {
			t.Errorf("jitsu-bench %s: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), why) {
			t.Errorf("jitsu-bench %s: stderr %q does not say %q", args, stderr.String(), why)
		}
		if stdout.Len() != 0 {
			t.Errorf("jitsu-bench %s: printed %q before refusing", args, stdout.String())
		}
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

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this build's output")

// TestStdoutMatchesGolden runs the example twice and holds everything
// it prints to testdata/stdout.golden: it runs on the virtual clock, so
// its output is fixed. A change meant to move it regenerates the file
// with go test ./examples/iot-firewall -update.
func TestStdoutMatchesGolden(t *testing.T) {
	got := stdoutOf(t, main)
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	if again := stdoutOf(t, main); !bytes.Equal(again, got) {
		t.Errorf("two runs differ:\n%s\nthen:\n%s", got, again)
	}
}

// stdoutOf returns what run prints to os.Stdout.
func stdoutOf(t *testing.T, run func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	defer func() { os.Stdout = saved }()
	os.Stdout = f
	run()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

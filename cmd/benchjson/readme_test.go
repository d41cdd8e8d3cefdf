package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite README.md's generated tables from BENCH.json and ALLOCS.json")

// renderReadme returns dir's README.md as it is and as its records say:
// under a "<!-- benchjson: COLUMN -->" line, each table row whose first
// cell (backticks dropped) names a workload of ALLOCS.json or a bench
// of BENCH.json gets that record's allocations in COLUMN.
func renderReadme(dir string) (was, want string, err error) {
	text, err1 := os.ReadFile(filepath.Join(dir, "README.md"))
	allocs, err2 := os.ReadFile(filepath.Join(dir, "ALLOCS.json"))
	doc, err3 := loadDoc(filepath.Join(dir, "BENCH.json"))
	err = errors.Join(err1, err2, err3)
	cells := map[string]string{}
	for _, b := range doc.Benches {
		if n, ok := b.Metrics["allocs/op"]; ok {
			cells[b.id()] = fmt.Sprint(n)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(allocs)), "\n") {
		var w map[string]any
		err = errors.Join(err, json.Unmarshal([]byte(line), &w))
		cells[fmt.Sprint(w["workload"])] = fmt.Sprintf("%.1f", w["host_allocs_per_req"])
	}
	if err != nil {
		return "", "", err
	}
	lines := strings.Split(string(text), "\n")
	header, at := "", 0 // at: the column being filled, -1 until the header row
	for i, line := range lines {
		row := strings.Split(line, "|")
		key := strings.Trim(strings.TrimSpace(row[min(1, len(row)-1)]), "`")
		if h, ok := strings.CutPrefix(line, "<!-- benchjson: "); ok {
			header, at = strings.TrimSuffix(h, " -->"), -1
		} else if !strings.HasPrefix(line, "|") {
			if at < 0 {
				err = errors.Join(err, fmt.Errorf("README.md:%d: no %q column above", i+1, header))
			}
			at = 0
		} else if at < 0 {
			for k, h := range row {
				if strings.TrimSpace(h) == header {
					at = k
				}
			}
		} else if at > 0 && !strings.HasPrefix(line, "|---") {
			if cells[key] == "" {
				err = errors.Join(err, fmt.Errorf("README.md:%d: no record for %q", i+1, key))
			}
			row[at] = " " + cells[key] + " "
			lines[i] = strings.Join(row, "|")
		}
	}
	return string(text), strings.Join(lines, "\n"), err
}

// TestReadmeTablesAreCurrent fails while a generated README cell — the
// workload table's allocs/req, the layer benches' allocs/op — disagrees
// with BENCH.json or ALLOCS.json, or either table lost its marker.
func TestReadmeTablesAreCurrent(t *testing.T) {
	was, want, err := renderReadme("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, mark := range []string{"<!-- benchjson: allocs/req -->\n| workload |", "<!-- benchjson: allocs/op -->\n| bench |"} {
		if !strings.Contains(was, mark) {
			t.Errorf("README.md has no table under %q", mark)
		}
	}
	if *update {
		if err := os.WriteFile("../../README.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if was != want {
		t.Fatal("README.md's generated tables are stale: run go test ./cmd/benchjson -update")
	}
}

// readmeIn renders readme beside a one-workload ALLOCS.json and a
// BENCH.json of two benches, one without allocs/op.
func readmeIn(t *testing.T, readme string) (string, error) {
	dir := t.TempDir()
	for name, text := range map[string]string{
		"README.md":   readme,
		"ALLOCS.json": `{"workload":"warm","seed":3,"host_allocs_per_req":23.3328,"host_alloc_kb_per_req":3.1}` + "\n",
		"BENCH.json":  `{"benches":[{"layer":"dns","name":"BenchmarkQuery","iterations":1,"metrics":{"allocs/op":6}},{"layer":"dns","name":"BenchmarkServe","iterations":1,"metrics":{"ns/op":5}}]}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := renderReadme(dir)
	return want, err
}

func TestReadmeTablesFillTheirColumn(t *testing.T) {
	in := "intro\n<!-- benchjson: n -->\n| key | n | note |\n|---|---|---|\n| `warm` | 9 | x |\n| `dns/BenchmarkQuery` |  | y |\n\nafter | 3 |\n"
	got, err := readmeIn(t, in)
	if want := "intro\n<!-- benchjson: n -->\n| key | n | note |\n|---|---|---|\n| `warm` | 23.3 | x |\n| `dns/BenchmarkQuery` | 6 | y |\n\nafter | 3 |\n"; err != nil || got != want {
		t.Fatalf("got %q, %v\nwant %q", got, err, want)
	}
	for _, bad := range []string{
		"<!-- benchjson: n -->\n| key | n |\n|---|---|\n| `gone` | 1 |\n",               // a row no record names
		"<!-- benchjson: n -->\n| key | n |\n|---|---|\n| `dns/BenchmarkServe` | 1 |\n", // a bench without allocs/op
		"<!-- benchjson: n -->\n| key | count |\n|---|---|\n| `warm` | 1 |\n",           // no such column
	} {
		if _, err := readmeIn(t, bad); err == nil {
			t.Errorf("renderReadme passed %q", bad)
		}
	}
}

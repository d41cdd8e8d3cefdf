package jitsu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceHooks are the exported names under internal/ that only tests
// reference, kept on purpose: each is how a test drives or looks inside
// a layer, and tests are safety code. Anything else exported from
// internal/ that no non-test file mentions is surface nothing calls —
// delete it rather than list it here.
var surfaceHooks = map[string]string{
	"Cwnd":             "cc.Controller: window introspection for the sender tests",
	"InFlight":         "cc.Controller: window-leak checks",
	"QueueLen":         "cc.Controller: queued-acquire checks",
	"SRTT":             "cc.Controller: Karn sampling checks",
	"OnLoss":           "cc.Controller: the loss arm the window-dynamics tests step through",
	"OwnedNodes":       "xenstore.Store: quota accounting vs the reference model",
	"Exists":           "xenstore.Store: differential test against refStore",
	"GetPerms":         "xenstore.Store: permission round-trips",
	"SeedARP":          "netstack.Host: skips ARP in alloc-pinning tests",
	"ActiveConns":      "wire.Server: session teardown checks",
	"Codes":            "api: the code table the wire codec tests must cover",
	"Verbs":            "api: the verb table wire's table-coverage test holds its rows to",
	"PartitionAtoB":    "netsim.Link: one-way partition tests",
	"PartitionBtoA":    "netsim.Link: its twin, for the gossip tests in cluster",
	"AddCluster":       "cluster.Federation: membership tests",
	"RemoveCluster":    "cluster.Federation: membership tests",
	"WithSYNRateLimit": "core: SYN-flood admission test",
	"Subscribe":        "core.Activation: state-transition observer for the trigger tests",
	"Remove":           "dns.Zone: record removal behind the cache-invalidation tests",
	"FracBelow":        "metrics.Series: shape assertions in the experiment tests",
}

// TestNoUnreferencedSurface fails when an exported func, method, type,
// var or const declared in a non-test file under internal/ is named by
// no non-test file of the module or of bench/ (its own declaration
// aside). The scan is by name — go/parser only, no type checking — so
// it is conservative: a name shared with something that is used passes
// (which also covers the methods the standard library calls through its
// own interfaces: String, Error, Len/Less/Swap).
func TestNoUnreferencedSurface(t *testing.T) {
	type decl struct{ name, pos string }
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
	walkSource(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasPrefix(path, "internal/") {
			note := func(id *ast.Ident) {
				declared[id] = true
				if id.IsExported() {
					decls = append(decls, decl{id.Name, fset.Position(id.Pos()).String()})
				}
			}
			for _, top := range f.Decls {
				switch top := top.(type) {
				case *ast.FuncDecl:
					note(top.Name)
				case *ast.GenDecl:
					for _, spec := range top.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							note(spec.Name)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								note(id)
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
	})
	var dead []string
	for _, d := range decls {
		if uses[d.name] == 0 && surfaceHooks[d.name] == "" {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test file references it", d)
	}
	for name := range surfaceHooks {
		if uses[name] != 0 {
			t.Errorf("surfaceHooks lists %s, but a non-test file references it: drop the entry", name)
		}
	}
}

// settableValues is how many values a user of the repository can set:
// exported fields of the *Config, *Opts and *Profile structs under
// internal/, With* options under internal/, and command-line flags
// defined outside bench/ (PR 22's definition). A new knob fails
// TestSettableValues until the same diff raises this number — say why
// in the PR; a deleted one lowers it.
const settableValues = 142

// flagDefs maps each flag-defining method of package flag and
// flag.FlagSet to the index of its name argument.
var flagDefs = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0, "String": 0, "Duration": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "StringVar": 1, "DurationVar": 1,
}

// TestSettableValues holds the count of knobs to settableValues.
func TestSettableValues(t *testing.T) {
	var knobs []string
	walkSource(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasPrefix(path, "bench/") {
			return
		}
		internal := strings.HasPrefix(path, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if internal && n.Recv == nil && strings.HasPrefix(n.Name.Name, "With") {
					knobs = append(knobs, path+": option "+n.Name.Name)
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !internal || !ok || !strings.HasSuffix(n.Name.Name, "Config") &&
					!strings.HasSuffix(n.Name.Name, "Opts") && !strings.HasSuffix(n.Name.Name, "Profile") {
					return true
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							knobs = append(knobs, path+": field "+n.Name.Name+"."+id.Name)
						}
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if at, isFlag := flagDefs[sel.Sel.Name]; isFlag && len(n.Args) == at+3 {
					if lit, ok := n.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						knobs = append(knobs, path+": flag "+lit.Value)
					}
				}
			}
			return true
		})
	})
	if len(knobs) != settableValues {
		sort.Strings(knobs)
		t.Errorf("%d settable values, settableValues says %d: a knob was added or removed — update the constant in the same diff\n%s",
			len(knobs), settableValues, strings.Join(knobs, "\n"))
	}
}

// walkSource parses every non-test Go file of the module and of bench/
// and hands each to visit with its slash-separated path.
func walkSource(t *testing.T, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(fset, filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// layers is the architecture map doc.go and the README draw, as the
// imports it allows: each package under internal/ and the internal
// packages its non-test files import — all of them, and no others. obs,
// metrics and sim sit at the bottom and import nothing of ours; blockdev
// knows only sim, cc only sim and obs; api sits above core and below
// cluster; wire above api and netstack, knowing nothing of cluster;
// experiments is the top and nothing under internal/ imports it.
var layers = map[string]string{
	"api":         "core netstack obs sim",
	"blockdev":    "sim",
	"cc":          "obs sim",
	"cluster":     "api cc core dns metrics netsim netstack obs power sim wire",
	"conduit":     "xen xenstore",
	"container":   "sim",
	"core":        "blockdev conduit dns netsim netstack obs sim unikernel xen xenstore",
	"dns":         "netstack obs sim",
	"experiments": "api blockdev cluster container core dns metrics netsim netstack obs power security sim unikernel xen xenstore",
	"metrics":     "",
	"netsim":      "sim",
	"netstack":    "netsim sim",
	"obs":         "",
	"power":       "",
	"security":    "",
	"sim":         "",
	"unikernel":   "netsim netstack sim xen",
	"wire":        "api core netstack obs sim unikernel xen",
	"xen":         "sim xenstore",
	"xenstore":    "",
}

// TestLayerMap fails on an import edge between internal packages that
// the map above does not allow — a new upward edge is a design change
// and is made there first — and on a row naming an edge that no longer
// exists, so the map cannot drift from the code it describes.
func TestLayerMap(t *testing.T) {
	const prefix = "jitsu/internal/"
	got := map[string]map[string]bool{}
	walkSource(t, func(_ *token.FileSet, path string, f *ast.File) {
		if !strings.HasPrefix(path, "internal/") {
			return
		}
		pkg := strings.Split(path, "/")[1]
		if got[pkg] == nil {
			got[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			if dep := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(dep, prefix) {
				got[pkg][strings.TrimPrefix(dep, prefix)] = true
			}
		}
	})
	for pkg, deps := range got {
		allowed, listed := layers[pkg]
		if !listed {
			t.Errorf("internal/%s is not in the layer map: add its row", pkg)
			continue
		}
		want := map[string]bool{}
		for _, dep := range strings.Fields(allowed) {
			want[dep] = true
			if !deps[dep] {
				t.Errorf("the layer map lets internal/%s import %s, but it no longer does: drop the edge", pkg, dep)
			}
		}
		for dep := range deps {
			if !want[dep] {
				t.Errorf("internal/%s imports %s, which the layer map does not allow", pkg, dep)
			}
		}
	}
	for pkg := range layers {
		if got[pkg] == nil {
			t.Errorf("the layer map lists internal/%s, which does not exist", pkg)
		}
	}
}

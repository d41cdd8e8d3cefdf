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
	"Verbs":            "api: the verb table the wire codec tests must cover",
	"PartitionAtoB":    "netsim.Link: one-way partition tests",
	"PartitionBtoA":    "netsim.Link: its twin, for the gossip tests in cluster",
	"BEnd":             "netsim.Link: AEnd's twin; tests wire bare NIC pairs with it",
	"AddCluster":       "cluster.Federation: membership tests",
	"RemoveCluster":    "cluster.Federation: membership tests",
	"WithSYNRateLimit": "core: SYN-flood admission test",
	"Subscribe":        "core.Activation: state-transition observer for the trigger tests",
	"RemoveTrigger":    "core.Board: AddTrigger's inverse, driven by the cluster trigger test",
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
	fset := token.NewFileSet()
	type decl struct{ name, pos string }
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
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
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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

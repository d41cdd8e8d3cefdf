package jitsu

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceHooks are the exported names under internal/ that only tests
// use, kept on purpose: each is how a test drives or looks inside a
// layer, and tests are safety code. Keys are package-qualified, methods
// by their receiver's type, fields by their struct's.
// Anything else exported from internal/ that no non-test file uses is
// surface nothing calls — delete it rather than list it here.
var surfaceHooks = map[string]string{
	"cc.Controller.Cwnd":               "window introspection for the sender tests",
	"cc.Controller.InFlight":           "window-leak checks",
	"cc.Controller.QueueLen":           "queued-acquire checks",
	"cc.Controller.SRTT":               "Karn sampling checks",
	"cc.Controller.OnLoss":             "the loss arm the window-dynamics tests step through",
	"xenstore.Store.OwnedNodes":        "quota accounting vs the reference model",
	"xenstore.Store.Exists":            "differential test against refStore",
	"xenstore.Store.GetPerms":          "permission round-trips",
	"xenstore.Store.Unwatch":           "watch removal, which the store tests and the differential test against refStore drive",
	"netstack.Host.SeedARP":            "skips ARP in alloc-pinning tests",
	"wire.Server.ActiveConns":          "session teardown checks",
	"api.Codes":                        "the code table the wire codec tests must cover",
	"api.Verbs":                        "the verb table wire's table-coverage test holds its rows to",
	"netsim.Link.PartitionAtoB":        "one-way partition tests",
	"netsim.Link.PartitionBtoA":        "its twin, for the gossip tests in cluster",
	"cluster.Federation.AddCluster":    "membership tests",
	"cluster.Federation.RemoveCluster": "membership tests",
	"core.WithSYNRateLimit":            "SYN-flood admission test",
	"core.Activation.Subscribe":        "state-transition observer for the trigger tests",
	"dns.Zone.Remove":                  "record removal behind the cache-invalidation tests",
	"metrics.Series.FracBelow":         "shape assertions in the experiment tests",
	"blockdev.Config.SlotMiB":          "small-disk tests in core and cluster",
	"blockdev.Config.Slots":            "small-disk tests in core and cluster",
	"blockdev.Config.SeekTime":         "small-disk tests in core and cluster",
	"blockdev.Config.BytesPerSec":      "small-disk tests in core and cluster",
	"security.CVE.App":                 "the paper's Table 2 application column, which TestEmbeddedAllRemoteExecution reads",
	"sim.Requests.Outstanding":         "the one count per table the quiescence checks read",
}

// TestNoUnreferencedSurface fails when an exported func, method, type,
// var or const declared in a non-test file under internal/ — or an
// exported method of an unexported type there — is used by no non-test
// file of the module or of bench/. Uses are resolved by type, not by
// name: every non-test package is type-checked from source in one
// universe, and a use counts only when it resolves to the declared
// object. A type's own method receivers are not uses of it. A method
// is also used when its receiver implements an interface the program
// declares with that method, or fmt.Stringer or error, since it is
// then reachable through a call no selector names.
//
// So is every exported field of a struct type declared there: a field
// is used where a selector or a keyed literal names it. An exported
// field of a configuration struct (knobStruct) must be used by a
// non-test file outside its own package: inside it, options and
// defaults are the writers, and a field only they touch is a second way
// to set the knob.
func TestNoUnreferencedSurface(t *testing.T) {
	prog := loadProgram(t)
	receivers := map[*ast.Ident]bool{}
	var decls []types.Object
	fields := map[types.Object]string{} // struct fields, by their surfaceHooks key
	knobs := map[types.Object]bool{}    // the configuration fields among them
	for path, files := range prog.files {
		if !strings.HasPrefix(path, "jitsu/internal/") {
			continue
		}
		for _, f := range files {
			for _, top := range f.Decls {
				switch top := top.(type) {
				case *ast.FuncDecl:
					decls = append(decls, prog.info.Defs[top.Name])
					if top.Recv != nil {
						ast.Inspect(top.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range top.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls = append(decls, prog.info.Defs[spec.Name])
							if st, ok := spec.Type.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									for _, id := range field.Names {
										obj := prog.info.Defs[id]
										decls = append(decls, obj)
										fields[obj] = pathpkg.Base(path) + "." + spec.Name.Name + "." + id.Name
										knobs[obj] = knobStruct(spec.Name.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								decls = append(decls, prog.info.Defs[id])
							}
						}
					}
				}
			}
		}
	}
	used, usedOutside := map[types.Object]bool{}, map[types.Object]bool{}
	dir := func(pos token.Pos) string { return filepath.Dir(prog.fset.Position(pos).Filename) }
	for id, obj := range prog.info.Uses {
		if !receivers[id] {
			used[origin(obj)] = true
			if obj.Pkg() != nil && dir(id.Pos()) != dir(obj.Pos()) {
				usedOutside[origin(obj)] = true
			}
		}
	}
	var dead []string
	declared := map[string]bool{}
	for _, obj := range decls {
		if obj == nil || !obj.Exported() {
			continue
		}
		name, field := fields[obj]
		live := used[obj]
		switch {
		case knobs[obj]:
			live = usedOutside[obj]
		case !field:
			name = qualified(obj)
			live = live || prog.reachedByInterface(obj)
		}
		declared[name] = true
		hook := surfaceHooks[name] != ""
		switch {
		case live && hook:
			t.Errorf("surfaceHooks lists %s, but a non-test file uses it: drop the entry", name)
		case !live && !hook && knobs[obj]:
			dead = append(dead, prog.fset.Position(obj.Pos()).String()+": "+name+" is an exported configuration field, but no non-test file outside its package uses it")
		case !live && !hook:
			dead = append(dead, prog.fset.Position(obj.Pos()).String()+": "+name+" is exported, but no non-test file uses it")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for name := range surfaceHooks {
		if !declared[name] {
			t.Errorf("surfaceHooks lists %s, which is not declared under internal/: drop the entry", name)
		}
	}
}

// program is every non-test package of the module and of bench/,
// type-checked from source with one types.Info, so a use anywhere
// resolves to the one object its declaration made.
type program struct {
	fset       *token.FileSet
	info       types.Info
	files      map[string][]*ast.File // by import path
	interfaces []*types.Interface     // every one the program declares a method in, plus fmt.Stringer and error
}

// loadProgram parses and type-checks the program. bench/ is its own
// module, jitsu/bench, whose import paths coincide with the directory
// layout under the root, so one path rule covers both; standard
// packages are type-checked from GOROOT's source.
func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{
		info:  types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		files: map[string][]*ast.File{},
	}
	walkSource(t, func(fset *token.FileSet, path string, f *ast.File) {
		p.fset = fset
		pkg := "jitsu"
		if dir := pathpkg.Dir(path); dir != "." {
			pkg += "/" + dir
		}
		p.files[pkg] = append(p.files[pkg], f)
	})
	std := importer.ForCompiler(p.fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		if p.files[path] == nil {
			return std.Import(path)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, p.fset, p.files[path], &p.info)
		checked[path] = pkg
		return pkg, err
	}
	for path := range p.files {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	p.interfaces = append(p.interfaces,
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Interface]bool{}
	for _, obj := range p.info.Defs {
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			if iface, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface); ok && !seen[iface] {
				seen[iface] = true
				p.interfaces = append(p.interfaces, iface)
			}
		}
	}
	return p
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reachedByInterface reports whether obj is a method of a type that
// implements one of the program's interfaces declaring that method.
func (p *program) reachedByInterface(obj types.Object) bool {
	recv := receiver(obj)
	if recv == nil {
		return false
	}
	for _, iface := range p.interfaces {
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() == obj.Name() && implements(recv, iface) {
				return true
			}
		}
	}
	return false
}

// implements reports whether *recv has iface's methods. A generic type
// has them when its declared methods match iface's signatures, which
// holds for every instantiation.
func implements(recv *types.Named, iface *types.Interface) bool {
	if recv.TypeParams().Len() == 0 {
		return types.Implements(types.NewPointer(recv), iface)
	}
	for i := range iface.NumMethods() {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(recv), false, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || !types.Identical(fn.Signature(), m.Signature()) {
			return false
		}
	}
	return true
}

// receiver is the named type obj is a method of, or nil when obj is not
// a method of one.
func receiver(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return nil
	}
	recv := fn.Signature().Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	return named
}

// origin maps a use inside an instantiated generic type or function to
// the declared object.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// qualified names obj as surfaceHooks keys it: package.Name, or
// package.Type.Method for a method.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if recv := receiver(obj); recv != nil {
		name += recv.Obj().Name() + "."
	}
	return name + obj.Name()
}

// settableValues is how many values a user of the repository can set:
// exported fields of the *Config, *Opts and *Profile structs under
// internal/, With* options under internal/, and command-line flags
// defined outside bench/ (PR 22's definition). A new knob fails
// TestSettableValues until the same diff raises this number — say why
// in the PR; a deleted one lowers it.
const settableValues = 99

// knobStruct reports whether a struct type of this name under internal/
// is a configuration struct, whose exported fields are settable values.
func knobStruct(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Profile")
}

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
				if !internal || !ok || !knobStruct(n.Name.Name) {
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

package filtering_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachableAllowed lists the internal/ declarations that no shipped code
// reaches but that stay, each with its reason. An entry that becomes live or
// stops existing fails the gate, so the list cannot go stale.
var unreachableAllowed = map[string]string{
	// Test support with no shipped equivalent: five packages' tests spell
	// rationals as "p/q" literals through it.
	"rat.MustParse": "shared test support (rat, eventgraph, plan, oplist, solve tests)",
	// ROADMAP item 2 makes the executor report it as the measured period;
	// sim's tests hold it to the MCR until then.
	"sim.Trace.SteadyPeriod": "measured period of ROADMAP item 2; held to the MCR by sim's tests",
	// The kill-a-replica switch of the replication chaos suite
	// (internal/cluster) and of faults' own tests.
	"faults.Injector.SetDown": "shared test support (cluster chaos suite, faults tests)",
	// Random forest plans for the forest-only checks (Prop. 12's tree
	// latency against the exhaustive order search, among others).
	"gen.ForestPlan": "shared test support (gen, orchestrate and root benchmark tests)",
}

// TestShippedCodeIsReachable is the gate that every declaration in a
// non-test internal/ file has a shipped caller: it type-checks the module
// and the benchmark module (bench/, which reaches the planner through a
// replace) and reports each top-level func, method, type, const and var
// that no live declaration refers to. Everything outside internal/ is a
// root (the filtering API, cmd/*, examples/*, bench/*), so a report reads
// "file:line: pkg.Name is reached only from tests or from nothing": delete
// it, move it into the _test.go file that uses it, or, for shared test
// support, add it to unreachableAllowed with its reason.
func TestShippedCodeIsReachable(t *testing.T) {
	fset, pkgs := loadShipped(t)
	res, err := reachability(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allowlistProblems(res, unreachableAllowed) {
		t.Error(p)
	}
	for _, d := range res.dead {
		if _, ok := unreachableAllowed[d.name]; !ok {
			t.Errorf("%s:%d: %s has no shipped caller", d.file, d.line, d.name)
		}
	}
}

// loadShipped parses the module and the benchmark module (bench/, which
// reaches the planner through a replace).
func loadShipped(t *testing.T) (*token.FileSet, map[string]*srcPackage) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*srcPackage{}
	for _, m := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		if err := loadModule(fset, m.dir, m.path, pkgs); err != nil {
			t.Fatal(err)
		}
	}
	return fset, pkgs
}

// srcPackage is one package's non-test files, parsed; types is filled in
// when the package is type-checked.
type srcPackage struct {
	files []*ast.File
	types *types.Package
}

// loadModule parses every non-test .go file the default build context
// selects under dir into pkgs, keyed by import path (modPath plus the
// directory's path below dir). Nested modules, testdata and dot- or
// underscore-prefixed directories are skipped.
func loadModule(fset *token.FileSet, dir, modPath string, pkgs map[string]*srcPackage) error {
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != dir && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		ipath := modPath
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		if pkgs[ipath] == nil {
			pkgs[ipath] = &srcPackage{}
		}
		pkgs[ipath].files = append(pkgs[ipath].files, f)
		return nil
	})
}

// sourceImporter type-checks the packages it holds on first import and
// hands every other path (the standard library) to the source importer.
type sourceImporter struct {
	fset *token.FileSet
	pkgs map[string]*srcPackage
	info *types.Info
	std  types.Importer
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.types == nil {
		conf := types.Config{Importer: im}
		tp, err := conf.Check(path, im.fset, p.files, im.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		p.types = tp
	}
	return p.types, nil
}

// typeCheck type-checks every package of pkgs into one Info and returns it
// with the packages' import paths, sorted.
func typeCheck(fset *token.FileSet, pkgs map[string]*srcPackage) (*types.Info, []string, error) {
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	im := &sourceImporter{fset: fset, pkgs: pkgs, info: info, std: importer.ForCompiler(fset, "source", nil)}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := im.Import(path); err != nil {
			return nil, nil, err
		}
	}
	return info, paths, nil
}

// decl is one top-level declared name; name is "pkg.Name" or
// "pkg.Type.Method".
type decl struct {
	name                 string
	file                 string
	line                 int
	node                 ast.Node // what its references are read from
	root, live, internal bool
	refs                 []types.Object
}

type reachResult struct {
	dead  []*decl         // unreachable internal declarations, sorted by file and line
	names map[string]bool // every internal declaration's name
}

// stdlibCalled names methods the standard library calls through reflection
// or through an interface the program never names.
var stdlibCalled = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Unwrap": true, "Is": true, "As": true,
}

// reachability type-checks pkgs and marks every declaration a root reaches
// through Uses and Selections (generic instances mapped to their origin).
// Roots are declarations in packages outside any internal/ directory, init
// functions, package-level vars with initialisers, methods named like a
// method of an interface type the program mentions, and stdlibCalled.
func reachability(fset *token.FileSet, pkgs map[string]*srcPackage) (*reachResult, error) {
	info, paths, err := typeCheck(fset, pkgs)
	if err != nil {
		return nil, err
	}

	decls := map[types.Object]*decl{}
	var order []*decl
	add := func(obj types.Object, d *decl) {
		if obj == nil {
			return
		}
		if obj.Name() == "_" {
			// A blank declaration is never reported, and what it refers to
			// (var _ I = (*T)(nil)) is live.
			d.root, d.internal = true, false
		} else {
			decls[obj] = d
		}
		order = append(order, d)
	}
	for _, path := range paths {
		internal := strings.Contains("/"+path+"/", "/internal/")
		pkg := pkgs[path].types
		for _, f := range pkgs[path].files {
			for _, fd := range f.Decls {
				switch fd := fd.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[fd.Name]
					name := pkg.Name() + "." + fd.Name.Name
					root := !internal || (fd.Recv == nil && fd.Name.Name == "init")
					if fd.Recv != nil {
						recv := obj.Type().(*types.Signature).Recv().Type()
						if p, ok := recv.(*types.Pointer); ok {
							recv = p.Elem()
						}
						name = pkg.Name() + "." + recv.(*types.Named).Obj().Name() + "." + fd.Name.Name
					}
					add(obj, newDecl(fset, name, fd, fd.Name, root, internal))
				case *ast.GenDecl:
					for _, spec := range fd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(info.Defs[s.Name], newDecl(fset, pkg.Name()+"."+s.Name.Name, s, s.Name, !internal, internal))
						case *ast.ValueSpec:
							root := !internal || (fd.Tok == token.VAR && len(s.Values) > 0)
							for _, id := range s.Names {
								obj := info.Defs[id]
								if obj == nil {
									continue
								}
								d := newDecl(fset, pkg.Name()+"."+id.Name, s, id, root, internal)
								// An iota constant's spec may omit its type; its
								// type is still a reference.
								if n, ok := obj.Type().(*types.Named); ok {
									d.refs = append(d.refs, n.Obj())
								}
								add(obj, d)
							}
						}
					}
				}
			}
		}
	}

	ifaceMethods := map[string]bool{}
	seen := map[types.Type]bool{}
	for _, tv := range info.Types {
		interfaceMethods(tv.Type, seen, ifaceMethods)
	}
	for _, m := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
		for _, obj := range m {
			if obj != nil {
				interfaceMethods(obj.Type(), seen, ifaceMethods)
			}
		}
	}

	var queue []*decl
	for _, d := range order {
		d.refs = append(d.refs, references(d.node, info)...)
		if fd, ok := d.node.(*ast.FuncDecl); ok && fd.Recv != nil {
			if ifaceMethods[fd.Name.Name] || stdlibCalled[fd.Name.Name] {
				d.root = true
			}
		}
		if d.root {
			d.live = true
			queue = append(queue, d)
		}
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, obj := range d.refs {
			if to := decls[obj]; to != nil && !to.live {
				to.live = true
				queue = append(queue, to)
			}
		}
	}

	res := &reachResult{names: map[string]bool{}}
	for _, d := range order {
		if !d.internal {
			continue
		}
		res.names[d.name] = true
		if !d.live {
			res.dead = append(res.dead, d)
		}
	}
	sort.Slice(res.dead, func(i, j int) bool {
		a, b := res.dead[i], res.dead[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	return res, nil
}

func newDecl(fset *token.FileSet, name string, node ast.Node, id *ast.Ident, root, internal bool) *decl {
	pos := fset.Position(id.Pos())
	return &decl{name: name, file: filepath.ToSlash(pos.Filename), line: pos.Line, node: node, root: root, internal: internal}
}

// references lists the objects node refers to, generic instances mapped to
// their origin.
func references(node ast.Node, info *types.Info) []types.Object {
	var refs []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		var obj types.Object
		switch n := n.(type) {
		case *ast.Ident:
			obj = info.Uses[n]
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				obj = sel.Obj()
			}
		}
		switch o := obj.(type) {
		case nil:
			return true
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		refs = append(refs, obj)
		return true
	})
	return refs
}

// interfaceMethods adds the method names of every interface type reachable
// from t through composite and signature types (not through struct fields)
// to names.
func interfaceMethods(t types.Type, seen map[types.Type]bool, names map[string]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			interfaceMethods(it, seen, names)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			interfaceMethods(t.TypeArgs().At(i), seen, names)
		}
	case *types.Alias:
		interfaceMethods(types.Unalias(t), seen, names)
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			names[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		interfaceMethods(t.Elem(), seen, names)
	case *types.Slice:
		interfaceMethods(t.Elem(), seen, names)
	case *types.Array:
		interfaceMethods(t.Elem(), seen, names)
	case *types.Chan:
		interfaceMethods(t.Elem(), seen, names)
	case *types.Map:
		interfaceMethods(t.Key(), seen, names)
		interfaceMethods(t.Elem(), seen, names)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				interfaceMethods(tup.At(i).Type(), seen, names)
			}
		}
	case *types.TypeParam:
		interfaceMethods(t.Constraint(), seen, names)
	}
}

// allowlistProblems reports each allowlist entry that names no declaration
// or names a live one.
func allowlistProblems(res *reachResult, allow map[string]string) []string {
	dead := map[string]bool{}
	for _, d := range res.dead {
		dead[d.name] = true
	}
	var out []string
	for name := range allow {
		switch {
		case !res.names[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s names no declaration: drop it", name))
		case !dead[name]:
			out = append(out, fmt.Sprintf("allowlist entry %s has a shipped caller: drop it", name))
		}
	}
	sort.Strings(out)
	return out
}

// TestReachability runs the gate's reachability over small in-memory
// programs: m/cmd is the shipped root, m/internal/a the scanned package.
func TestReachability(t *testing.T) {
	cases := []struct {
		name     string
		internal string // source of m/internal/a
		cmd      string // source of m/cmd (package main)
		allow    map[string]string
		dead     []string
		problems int
	}{{
		name: "dead chain is reported whole",
		internal: `package a
func Live() {}
func Dead() { helper() }
func helper() {}`,
		cmd:  `package main; import "m/internal/a"; func main() { a.Live() }`,
		dead: []string{"a.Dead", "a.helper"},
	}, {
		name: "a method satisfying an interface of the program is live",
		internal: `package a
type Namer interface{ Name() string }
type T struct{}
func New() T { return T{} }
func (T) Name() string { return "t" }
func (T) Unused() {}`,
		cmd:  `package main; import "m/internal/a"; func main() { _ = a.New() }`,
		dead: []string{"a.Namer", "a.T.Unused"},
	}, {
		name: "a generic method used only through an instance is live",
		internal: `package a
type Box[V any] struct{ v V }
func (b *Box[V]) Get() V { return b.v }
func (b *Box[V]) Set(v V) { b.v = v }`,
		cmd:  `package main; import "m/internal/a"; func main() { var b a.Box[int]; _ = b.Get() }`,
		dead: []string{"a.Box.Set"},
	}, {
		name: "a var initialiser is a root, and so is what it calls",
		internal: `package a
var table = build()
func build() []int { return nil }
const unused = 1`,
		cmd:  `package main; func main() {}`,
		dead: []string{"a.unused"},
	}, {
		name: "stale and live allowlist entries fail",
		internal: `package a
func Live() {}
func Kept() {}`,
		cmd:      `package main; import "m/internal/a"; func main() { a.Live() }`,
		allow:    map[string]string{"a.Kept": "test support", "a.Gone": "deleted", "a.Live": "has a caller"},
		dead:     []string{"a.Kept"},
		problems: 2,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs := map[string]*srcPackage{}
			for path, src := range map[string]string{"m/internal/a": c.internal, "m/cmd": c.cmd} {
				f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				pkgs[path] = &srcPackage{files: []*ast.File{f}}
			}
			res, err := reachability(fset, pkgs)
			if err != nil {
				t.Fatal(err)
			}
			var dead []string
			for _, d := range res.dead {
				dead = append(dead, d.name)
			}
			if strings.Join(dead, " ") != strings.Join(c.dead, " ") {
				t.Errorf("dead = %v, want %v", dead, c.dead)
			}
			if p := allowlistProblems(res, c.allow); len(p) != c.problems {
				t.Errorf("allowlist problems %q, want %d", p, c.problems)
			}
		})
	}
}

// knobsAllowed lists the option fields that no shipped code sets but that
// stay, each with its reason. An entry that gains a setter or names no
// field in scope fails the gate.
var knobsAllowed = map[string]string{
	"cluster.Config.BreakerCooldown":       "wall-clock seam the tests shorten, until ROADMAP 5d's injectable clock",
	"cluster.Config.ProbeTimeout":          "wall-clock seam the tests shorten, until ROADMAP 5d's injectable clock",
	"cluster.Config.RetryBackoff":          "wall-clock seam the tests shorten, until ROADMAP 5d's injectable clock",
	"cluster.GossipConfig.BreakerCooldown": "wall-clock seam the tests shorten, until ROADMAP 5d's injectable clock",
	"faults.Config.MaxDelay":               "wall-clock seam the tests shorten, until ROADMAP 5d's injectable clock",
	"resilience.BreakerConfig.Now":         "wall-clock seam the tests shorten, until ROADMAP 5d's injectable clock",
	"exec.Config.Predicate":                "test seam: deterministic verdicts the executor tests assert",
}

// TestShippedKnobsHaveShippedSetters is the gate that every option a
// shipped caller can build is one some shipped caller sets: for each
// exported field of an exported internal/ struct that shipped code outside
// its package builds with a composite literal, it wants a json: tag (the
// wire decoder sets it) or a shipped write of the field. Defaulting does not
// count: a write inside the struct's package only counts from a function
// whose receiver and parameters do not include the struct. A report reads
// "file:line: pkg.Type.Field has no shipped setter": make it a constant, or
// add it to knobsAllowed with its reason.
func TestShippedKnobsHaveShippedSetters(t *testing.T) {
	fset, pkgs := loadShipped(t)
	unset, problems, err := knobGate(fset, pkgs, knobsAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	for _, k := range unset {
		t.Errorf("%s:%d: %s has no shipped setter", k.file, k.line, k.name)
	}
}

// knob is one exported field of an exported internal/ struct; name is
// "pkg.Type.Field".
type knob struct {
	name  string
	file  string
	line  int
	set   bool         // carries a json: tag or has a counted write
	owner *types.Named // the struct declaring the field
}

// knobGate type-checks pkgs and returns the in-scope knobs that have no
// setter and are not in allow (sorted by file and line), plus one problem
// per allow entry that names no in-scope knob or names one with a setter.
func knobGate(fset *token.FileSet, pkgs map[string]*srcPackage, allow map[string]string) ([]*knob, []string, error) {
	info, paths, err := typeCheck(fset, pkgs)
	if err != nil {
		return nil, nil, err
	}

	// Every exported field of every exported internal/ struct.
	knobs := map[*types.Var]*knob{}
	for _, path := range paths {
		if !strings.Contains("/"+path+"/", "/internal/") {
			continue
		}
		for _, f := range pkgs[path].files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if _, ok := ts.Type.(*ast.StructType); !ok || !ts.Name.IsExported() {
					return false
				}
				named := info.Defs[ts.Name].Type().(*types.Named)
				st := named.Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if !v.Exported() {
						continue
					}
					_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
					pos := fset.Position(v.Pos())
					knobs[v] = &knob{
						name: named.Obj().Pkg().Name() + "." + ts.Name.Name + "." + v.Name(),
						file: filepath.ToSlash(pos.Filename), line: pos.Line,
						set: tagged, owner: named,
					}
				}
				return false
			})
		}
	}

	// Walk every function and package-level declaration for composite
	// literals (which put a struct in scope, and whose keys are writes) and
	// for assignments, inc/dec and &x.F (writes).
	inScope := map[*types.Named]bool{}
	for _, path := range paths {
		pkg := pkgs[path].types
		for _, f := range pkgs[path].files {
			for _, d := range f.Decls {
				var sig *types.Signature
				if fd, ok := d.(*ast.FuncDecl); ok {
					sig = info.Defs[fd.Name].Type().(*types.Signature)
				}
				write := func(e ast.Expr) {
					sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
					if !ok || info.Selections[sel] == nil {
						return
					}
					if v, ok := info.Selections[sel].Obj().(*types.Var); ok {
						countWrite(knobs[v.Origin()], pkg, sig)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						named := structOf(info.Types[n].Type)
						if named == nil {
							return true
						}
						if named.Obj().Pkg() != pkg {
							inScope[named] = true
						}
						for i, el := range n.Elts {
							var field types.Object
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								field = info.Uses[kv.Key.(*ast.Ident)]
							} else {
								field = named.Underlying().(*types.Struct).Field(i)
							}
							if v, ok := field.(*types.Var); ok {
								countWrite(knobs[v.Origin()], pkg, sig)
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							write(lhs)
						}
					case *ast.IncDecStmt:
						write(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X)
						}
					}
					return true
				})
			}
		}
	}

	var unset []*knob
	byName := map[string]*knob{}
	for _, k := range knobs {
		if !inScope[k.owner] {
			continue
		}
		byName[k.name] = k
		if _, ok := allow[k.name]; !k.set && !ok {
			unset = append(unset, k)
		}
	}
	sort.Slice(unset, func(i, j int) bool {
		a, b := unset[i], unset[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	var problems []string
	for name := range allow {
		switch k := byName[name]; {
		case k == nil:
			problems = append(problems, fmt.Sprintf("knob allowlist entry %s names no field in scope: drop it", name))
		case k.set:
			problems = append(problems, fmt.Sprintf("knob allowlist entry %s has a shipped setter: drop it", name))
		}
	}
	sort.Strings(problems)
	return unset, problems, nil
}

// countWrite marks k set unless the write is in k's own package, in a
// function that takes k's struct as receiver or parameter (defaulting).
func countWrite(k *knob, pkg *types.Package, sig *types.Signature) {
	if k == nil || k.set {
		return
	}
	if pkg == k.owner.Obj().Pkg() && sig != nil {
		params := []*types.Var{}
		if sig.Recv() != nil {
			params = append(params, sig.Recv())
		}
		for i := 0; i < sig.Params().Len(); i++ {
			params = append(params, sig.Params().At(i))
		}
		for _, p := range params {
			if structOf(p.Type()) == k.owner {
				return
			}
		}
	}
	k.set = true
}

// structOf returns the generic origin of the named struct type t is or
// points to, or nil.
func structOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n.Origin()
}

// TestKnobGate runs the knob gate over small module trees written to disk
// (so the loader's _test.go skip is part of what is tested):
// m/internal/a is the scanned package, m/cmd its shipped caller.
func TestKnobGate(t *testing.T) {
	const defaults = `package a
type Config struct {
	Size  int
	Count int
}
func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 8
	}
	return c
}
func New(cfg Config) int {
	cfg = cfg.withDefaults()
	cfg.Count++
	return cfg.Size + cfg.Count
}`
	cases := []struct {
		name     string
		files    map[string]string // path below the module root → source
		allow    map[string]string
		unset    []string
		problems int
	}{{
		name: "a field set only from a _test.go file is reported",
		files: map[string]string{
			"internal/a/a.go":      `package a; type Config struct{ Size int }; func New(cfg Config) int { return cfg.Size }`,
			"internal/a/a_test.go": `package a; var c = Config{Size: 2}`,
			"cmd/main.go":          `package main; import "m/internal/a"; func main() { _ = a.New(a.Config{}) }`,
		},
		unset: []string{"a.Config.Size"},
	}, {
		name: "writes in withDefaults(c Config) and New(cfg Config) are defaulting",
		files: map[string]string{
			"internal/a/a.go": defaults,
			"cmd/main.go":     `package main; import "m/internal/a"; func main() { _ = a.New(a.Config{}) }`,
		},
		unset: []string{"a.Config.Size", "a.Config.Count"},
	}, {
		name: "a keyed literal in another package clears the field",
		files: map[string]string{
			"internal/a/a.go": defaults,
			"cmd/main.go":     `package main; import "m/internal/a"; func main() { _ = a.New(a.Config{Size: 3}) }`,
		},
		unset: []string{"a.Config.Count"},
	}, {
		name: "an assignment, inc/dec or &x.F in another package clears the field",
		files: map[string]string{
			"internal/a/a.go": defaults,
			"cmd/main.go": `package main; import "m/internal/a"
func main() {
	var c a.Config
	c.Size = 1
	p := &c.Count
	*p = 2
	_ = a.New(c)
}`,
		},
	}, {
		name: "a non-defaulting write in the same package clears the field",
		files: map[string]string{
			"internal/a/a.go": `package a
type Request struct{ Size int }
type Params struct {
	Size int ` + "`json:\"size\"`" + `
}
func (p Params) Request() Request { return Request{Size: p.Size} }`,
			"cmd/main.go": `package main; import "m/internal/a"; func main() { _ = a.Request{}; _ = a.Params{}.Request() }`,
		},
	}, {
		name: "a json-tagged field clears, and a struct built only in its package is out of scope",
		files: map[string]string{
			"internal/a/a.go": `package a
type Config struct {
	Name string ` + "`json:\"name\"`" + `
}
type Stats struct{ Count int }
func Run(c Config) Stats { return Stats{} }`,
			"cmd/main.go": `package main; import "m/internal/a"; func main() { _ = a.Run(a.Config{}) }`,
		},
	}, {
		name: "allowlist entries naming a field with a setter, or no field, fail",
		files: map[string]string{
			"internal/a/a.go": defaults,
			"cmd/main.go":     `package main; import "m/internal/a"; func main() { _ = a.New(a.Config{Size: 3}) }`,
		},
		allow:    map[string]string{"a.Config.Count": "seam", "a.Config.Size": "has a setter", "a.Config.Gone": "deleted"},
		problems: 2,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for path, src := range c.files {
				full := filepath.Join(dir, filepath.FromSlash(path))
				if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fset := token.NewFileSet()
			pkgs := map[string]*srcPackage{}
			if err := loadModule(fset, dir, "m", pkgs); err != nil {
				t.Fatal(err)
			}
			unset, problems, err := knobGate(fset, pkgs, c.allow)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, k := range unset {
				names = append(names, k.name)
			}
			if strings.Join(names, " ") != strings.Join(c.unset, " ") {
				t.Errorf("unset = %v, want %v", names, c.unset)
			}
			if len(problems) != c.problems {
				t.Errorf("allowlist problems %q, want %d", problems, c.problems)
			}
		})
	}
}

// surfaceAllowed lists the CLI flags, HTTP routes and metric families that
// nothing reads but that stay, each with its reason. An entry that gains a
// reader or names nothing fails the gate.
var surfaceAllowed = map[string]string{
	"filterexp -exp": "selectReports, what -exp runs, is covered in process by TestSelectReports (cmd/filterexp)",
}

// TestShippedSurfaceHasReaders is the gate that every shipped surface has a
// reader: every flag a command declares is passed to that command by some
// script, Makefile recipe or CI step; every HTTP route is requested by some
// test, script or benchmark; and every metric family is named by some
// test, script, benchmark or example. Comments and prose do not count. A
// report reads "file:line: flag cmd -name has no reader" (or route, or
// metric family): delete it, give it a reader, or add it to surfaceAllowed
// with its reason.
func TestShippedSurfaceHasReaders(t *testing.T) {
	fset, pkgs := loadShipped(t)
	texts, err := readerTexts(".")
	if err != nil {
		t.Fatal(err)
	}
	unread, problems := surfaceGate(fset, pkgs, texts, surfaceAllowed)
	for _, p := range problems {
		t.Error(p)
	}
	for _, u := range unread {
		t.Error(u)
	}
}

// surfaceItem is one shipped flag ("cmd -name"), route (its pattern) or
// metric family (its name).
type surfaceItem struct {
	kind, name string
	file       string
	line       int
	read       bool
}

func (u *surfaceItem) String() string {
	return fmt.Sprintf("%s:%d: %s %s has no reader", u.file, u.line, u.kind, u.name)
}

// registryConstructors are the metrics.Registry methods whose first
// argument names a family.
var registryConstructors = map[string]bool{
	"CounterVec": true, "CounterFunc": true,
	"GaugeVec": true, "GaugeFunc": true,
	"Histogram": true, "HistogramVec": true,
}

var cmdMain = regexp.MustCompile(`^cmd/([^/]+)/main\.go$`)

// surfaceGate collects the flags of every cmd/<cmd>/main.go, and the route
// patterns and family names of every file in pkgs, and marks each one read
// by texts (a path below the repository root → its content). It returns
// the unread items not in allow, sorted by file and line, and one problem
// per allow entry that names no item or names a read one.
func surfaceGate(fset *token.FileSet, pkgs map[string]*srcPackage, texts map[string]string, allow map[string]string) ([]*surfaceItem, []string) {
	var items []*surfaceItem
	for _, p := range pkgs {
		for _, f := range p.files {
			file := filepath.ToSlash(fset.Position(f.Pos()).Filename)
			cmd := ""
			if m := cmdMain.FindStringSubmatch(file); m != nil {
				cmd = m[1]
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				var kind string
				switch x, _ := sel.X.(*ast.Ident); {
				case x != nil && x.Name == "flag" && cmd != "":
					kind, name = "flag", cmd+" -"+name
				case sel.Sel.Name == "Handle" || sel.Sel.Name == "HandleFunc":
					kind = "route"
				case registryConstructors[sel.Sel.Name]:
					kind = "metric family"
				default:
					return true
				}
				pos := fset.Position(lit.Pos())
				items = append(items, &surfaceItem{kind: kind, name: name, file: file, line: pos.Line})
				return true
			})
		}
	}

	// The readers: invocations in scripts, the Makefile and CI; string
	// literals of tests, the benchmark and the examples; non-comment
	// lines of scripts.
	var invocations []string
	var routeText, familyText strings.Builder
	for path, text := range texts {
		script := strings.HasPrefix(path, "scripts/") && strings.HasSuffix(path, ".sh")
		if script || path == "Makefile" || (strings.HasPrefix(path, ".github/workflows/") && strings.HasSuffix(path, ".yml")) {
			invocations = append(invocations, commandLines(text)...)
		}
		bench := strings.HasPrefix(path, "bench/")
		example := strings.HasPrefix(path, "examples/")
		switch {
		case strings.HasSuffix(path, ".go") && (strings.HasSuffix(path, "_test.go") || bench || example):
			text = goStrings(text)
		case (script || bench) && strings.HasSuffix(path, ".sh"):
			text = strings.Join(commandLines(text), "\n")
		default:
			continue
		}
		if !example {
			routeText.WriteString(text + "\n")
		}
		familyText.WriteString(text + "\n")
	}
	words := map[string]bool{}
	for _, w := range regexp.MustCompile(`\w+`).FindAllString(familyText.String(), -1) {
		words[w] = true
	}
	flagArg := regexp.MustCompile(`(?:^|[\s"'])(-[A-Za-z][\w-]*)`)
	passed := map[string]bool{} // "cmd -name"
	for _, it := range items {
		if it.kind != "flag" {
			continue
		}
		cmd, _, _ := strings.Cut(it.name, " ")
		if passed[cmd] {
			continue
		}
		passed[cmd] = true
		invoke := regexp.MustCompile(`(?:/|\./cmd/)` + regexp.QuoteMeta(cmd) + `(?:["'\s]|$)`)
		for _, line := range invocations {
			for _, loc := range invoke.FindAllStringIndex(line, -1) {
				rest := line[loc[1]:]
				if end := strings.IndexAny(rest, "|;&)"); end >= 0 {
					rest = rest[:end]
				}
				for _, m := range flagArg.FindAllStringSubmatch(rest, -1) {
					passed[cmd+" "+m[1]] = true
				}
			}
		}
	}
	for _, it := range items {
		switch it.kind {
		case "flag":
			it.read = passed[it.name]
		case "route":
			path := it.name
			if _, p, ok := strings.Cut(path, " "); ok {
				path = p
			}
			path, _, _ = strings.Cut(path, "{")
			it.read = strings.Contains(routeText.String(), path)
		default:
			it.read = words[it.name] || words[it.name+"_bucket"] || words[it.name+"_sum"] || words[it.name+"_count"]
		}
	}

	var unread []*surfaceItem
	byName := map[string]*surfaceItem{}
	for _, it := range items {
		if prev := byName[it.name]; prev == nil || it.read {
			byName[it.name] = it
		}
		if _, ok := allow[it.name]; !it.read && !ok {
			unread = append(unread, it)
		}
	}
	sort.Slice(unread, func(i, j int) bool {
		a, b := unread[i], unread[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	var problems []string
	for name := range allow {
		switch it := byName[name]; {
		case it == nil:
			problems = append(problems, fmt.Sprintf("surface allowlist entry %s names no flag, route or metric family: drop it", name))
		case it.read:
			problems = append(problems, fmt.Sprintf("surface allowlist entry %s has a reader: drop it", name))
		}
	}
	sort.Strings(problems)
	return unread, problems
}

// commandLines returns text's lines with comment lines dropped and
// backslash continuations joined.
func commandLines(text string) []string {
	var lines []string
	var cur strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		if body, ok := strings.CutSuffix(line, `\`); ok {
			cur.WriteString(body + " ")
			continue
		}
		cur.WriteString(line)
		lines = append(lines, cur.String())
		cur.Reset()
	}
	return append(lines, cur.String())
}

// goStrings returns the string literals of Go source, one per line: what
// the code says, without its comments.
func goStrings(src string) string {
	var s scanner.Scanner
	fset := token.NewFileSet()
	s.Init(fset.AddFile("", -1, len(src)), []byte(src), nil, 0)
	var b strings.Builder
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return b.String()
		}
		if tok == token.STRING {
			b.WriteString(lit + "\n")
		}
	}
}

// readerTexts reads every file below root that can read a surface item:
// scripts, the Makefile, CI workflows, tests, the benchmark and the
// examples. Dot directories other than .github, testdata and bin are
// skipped.
func readerTexts(root string) (map[string]string, error) {
	texts := map[string]string{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		name := e.Name()
		if e.IsDir() {
			if rel != "." && ((strings.HasPrefix(name, ".") && name != ".github") || name == "testdata" || name == "bin") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".sh") && !strings.HasSuffix(name, ".yml") && name != "Makefile" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		texts[rel] = string(data)
		return nil
	})
	return texts, err
}

// TestSurfaceGate runs the surface gate over small in-memory trees: an
// unread flag, route or family is reported as file:line, and each kind of
// reader clears its kind.
func TestSurfaceGate(t *testing.T) {
	const tool = `package main

import ("flag"; "net/http"; "m/internal/metrics")

func main() {
	_ = flag.Int("depth", 1, "")
	_ = flag.Bool("v", false, "")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/item/{id}", nil)
	r := metrics.New()
	r.CounterFunc("tool_items_total", "", nil)
	r.HistogramVec("tool_seconds", "", nil, "phase")
}`
	const metricsPkg = `package metrics
type Registry struct{}
func New() *Registry { return nil }
func (*Registry) CounterFunc(name, help string, fn func() float64) {}
func (*Registry) HistogramVec(name, help string, b []float64, labels ...string) {}`
	cases := []struct {
		name     string
		texts    map[string]string
		allow    map[string]string
		unread   []string
		problems int
	}{{
		name: "nothing read: every item is reported at its line",
		texts: map[string]string{
			"README.md":          "tool -depth 3 GET /v1/item/1 tool_items_total",
			"internal/a_test.go": "package a // tool_seconds /v1/item/",
		},
		unread: []string{
			"cmd/tool/main.go:6: flag tool -depth has no reader",
			"cmd/tool/main.go:7: flag tool -v has no reader",
			"cmd/tool/main.go:9: route GET /v1/item/{id} has no reader",
			"cmd/tool/main.go:11: metric family tool_items_total has no reader",
			"cmd/tool/main.go:12: metric family tool_seconds has no reader",
		},
	}, {
		name: "scripts pass flags, tests request routes and name families",
		texts: map[string]string{
			"scripts/run.sh": "# \"$BIN/tool\" -v\n\"$BIN/tool\" -depth 2 \\\n    -v | grep -x\n",
			"internal/a_test.go": "package a\nvar _ = []string{\"/v1/item/\" + id, `tool_seconds_count{phase=\"x\"} 1`}\n" +
				"var _ = \"tool_items_total_x\"",
		},
		unread: []string{"cmd/tool/main.go:11: metric family tool_items_total has no reader"},
	}, {
		name: "a flag after a pipe, or before the command, is not passed to it",
		texts: map[string]string{
			"Makefile":           "run:\n\tgo build -o bin/tool ./cmd/tool\n\t./bin/tool | other -depth 1\n\tgo run ./cmd/tool -v\n",
			"examples/x/main.go": `package main; var _ = "tool_items_total tool_seconds /v1/item/"`,
		},
		unread: []string{
			"cmd/tool/main.go:6: flag tool -depth has no reader",
			"cmd/tool/main.go:9: route GET /v1/item/{id} has no reader",
		},
	}, {
		name:  "stale and read allowlist entries fail",
		texts: map[string]string{"scripts/run.sh": "go run ./cmd/tool -v"},
		allow: map[string]string{"tool -depth": "covered in process", "tool -v": "read", "tool -gone": "deleted"},
		unread: []string{
			"cmd/tool/main.go:9: route GET /v1/item/{id} has no reader",
			"cmd/tool/main.go:11: metric family tool_items_total has no reader",
			"cmd/tool/main.go:12: metric family tool_seconds has no reader",
		},
		problems: 2,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs := map[string]*srcPackage{}
			for path, src := range map[string]string{"cmd/tool/main.go": tool, "internal/metrics/m.go": metricsPkg} {
				f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				pkgs[filepath.Dir(path)] = &srcPackage{files: []*ast.File{f}}
			}
			unread, problems := surfaceGate(fset, pkgs, c.texts, c.allow)
			var got []string
			for _, u := range unread {
				got = append(got, u.String())
			}
			if strings.Join(got, "\n") != strings.Join(c.unread, "\n") {
				t.Errorf("unread:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.unread, "\n"))
			}
			if len(problems) != c.problems {
				t.Errorf("allowlist problems %q, want %d", problems, c.problems)
			}
		})
	}
}

// fieldsAllowed lists the struct fields that no shipped code reads but that
// stay, each with its reason. An entry that gains a reader or names no field
// fails the gate.
var fieldsAllowed = map[string]string{
	"orchestrate.Options.Workers": "inert, but bench/ sets it; it goes with ROADMAP item 1a's inert identifiers",
}

// TestShippedFieldsHaveReaders is the gate that every struct field declared
// in a non-test internal/ file is read by shipped code (the module and
// bench/). A use is a read unless it is an assignment target, the operand of
// ++/--, a composite-literal key, or the receiver of a sync/atomic Add or
// Store. A field with a struct tag is read (a codec reads it), and so is
// every field of a struct type that reaches an argument of an encoding/json
// or fmt call through fields, pointers, slices, arrays and maps. A report
// reads "file:line: pkg.Type.Field has no shipped reader": delete the field,
// or add it to fieldsAllowed with its reason.
func TestShippedFieldsHaveReaders(t *testing.T) {
	fset, pkgs := loadShipped(t)
	unread, problems, err := fieldGate(fset, pkgs, fieldsAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	for _, f := range unread {
		t.Error(f)
	}
}

// structField is one field of a struct type declared in an internal/
// package; name is "pkg.Type.Field" (a field of a nested anonymous struct
// continues the path).
type structField struct {
	name string
	file string
	line int
	read bool
}

func (f *structField) String() string {
	return fmt.Sprintf("%s:%d: %s has no shipped reader", f.file, f.line, f.name)
}

// fieldGate type-checks pkgs and returns the internal/ struct fields that
// have no shipped reader and are not in allow (sorted by file and line),
// plus one problem per allow entry that names no field or names a read one.
func fieldGate(fset *token.FileSet, pkgs map[string]*srcPackage, allow map[string]string) ([]*structField, []string, error) {
	info, paths, err := typeCheck(fset, pkgs)
	if err != nil {
		return nil, nil, err
	}

	// Every field of every struct type an internal/ package declares,
	// package-level or local, with the anonymous structs nested in them.
	fields := map[*types.Var]*structField{}
	var collect func(prefix string, st *types.Struct)
	collect = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			pos := fset.Position(v.Pos())
			name := prefix + "." + v.Name()
			fields[v] = &structField{name: name, file: filepath.ToSlash(pos.Filename), line: pos.Line, read: st.Tag(i) != ""}
			if inner := anonymousStruct(v.Type()); inner != nil {
				collect(name, inner)
			}
		}
	}
	for _, path := range paths {
		if !strings.Contains("/"+path+"/", "/internal/") {
			continue
		}
		for _, f := range pkgs[path].files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if _, ok := ts.Type.(*ast.StructType); ok {
						collect(pkgs[path].types.Name()+"."+ts.Name.Name, info.Defs[ts.Name].Type().Underlying().(*types.Struct))
					}
				}
				return true
			})
		}
	}
	markRead := func(v *types.Var) {
		if f := fields[v.Origin()]; f != nil {
			f.read = true
		}
	}

	// Every field of a struct type reachable from t is read.
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			reach(t.Underlying())
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				markRead(t.Field(i))
				reach(t.Field(i).Type())
			}
		}
	}

	for _, path := range paths {
		for _, f := range pkgs[path].files {
			written := map[*ast.SelectorExpr]bool{}
			write := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CallExpr:
					switch pkg := calleePackage(n, info); {
					case pkg == "sync/atomic":
						if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && (sel.Sel.Name == "Add" || sel.Sel.Name == "Store") {
							write(sel.X)
						}
					case pkg == "encoding/json" || pkg == "fmt":
						for _, arg := range n.Args {
							reach(info.Types[arg].Type)
						}
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil {
						return true
					}
					// Fields embedded on the way to the selected member are read.
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						v := t.Underlying().(*types.Struct).Field(i)
						markRead(v)
						t = v.Type()
					}
					if v, ok := sel.Obj().(*types.Var); ok && sel.Kind() == types.FieldVal && !written[n] {
						markRead(v)
					}
				}
				return true
			})
		}
	}

	var unread []*structField
	byName := map[string]*structField{}
	for _, f := range fields {
		byName[f.name] = f
		if _, ok := allow[f.name]; !f.read && !ok {
			unread = append(unread, f)
		}
	}
	sort.Slice(unread, func(i, j int) bool {
		a, b := unread[i], unread[j]
		if a.file != b.file {
			return a.file < b.file
		}
		return a.line < b.line
	})
	var problems []string
	for name := range allow {
		switch f := byName[name]; {
		case f == nil:
			problems = append(problems, fmt.Sprintf("field allowlist entry %s names no field: drop it", name))
		case f.read:
			problems = append(problems, fmt.Sprintf("field allowlist entry %s has a shipped reader: drop it", name))
		}
	}
	sort.Strings(problems)
	return unread, problems, nil
}

// anonymousStruct returns the unnamed struct type t is, or holds through
// pointers, slices, arrays and maps, or nil.
func anonymousStruct(t types.Type) *types.Struct {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Struct:
			return u
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil
		}
	}
}

// calleePackage returns the import path of the package declaring the
// function or method call calls, or "".
func calleePackage(call *ast.CallExpr, info *types.Info) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
		return fn.Pkg().Path()
	}
	return ""
}

// TestFieldGate runs the field gate over small module trees written to
// disk (so the loader's _test.go skip is part of what is tested):
// m/internal/a is the scanned package, m/cmd its shipped caller.
func TestFieldGate(t *testing.T) {
	const counters = `package a

import "sync/atomic"

type Stats struct {
	Hits   int64
	Misses int64
}

type Server struct {
	hits, misses atomic.Int64
	name         string
	n            int
}

func New(name string) *Server {
	s := &Server{name: name}
	s.n = 1
	s.n++
	s.hits.Add(1)
	s.misses.Store(2)
	return s
}

func (s *Server) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load()}
}`
	cases := []struct {
		name     string
		files    map[string]string // path below the module root → source
		allow    map[string]string
		unread   []string
		problems int
	}{{
		name: "writes, keys and atomic Add/Store are not reads, and a _test.go read does not count",
		files: map[string]string{
			"internal/a/a.go":      counters,
			"internal/a/a_test.go": "package a\nvar _ = New(\"x\").Stats().Misses + int64(New(\"y\").n)",
			"cmd/main.go":          `package main; import "m/internal/a"; func main() { _ = a.New("m").Stats().Hits }`,
		},
		unread: []string{
			"internal/a/a.go:7: a.Stats.Misses has no shipped reader",
			"internal/a/a.go:12: a.Server.name has no shipped reader",
			"internal/a/a.go:13: a.Server.n has no shipped reader",
		},
	}, {
		name: "a struct tag, or a struct reaching a json or fmt argument, clears its fields",
		files: map[string]string{
			"internal/a/a.go": `package a
type Wire struct {
	Name string ` + "`json:\"name\"`" + `
	Skip int
}
type Report struct {
	Rows  []*Row
	ByKey map[string]Row
}
type Row struct{ Cost, Count int }
type Hidden struct{ Secret int }
func Build() (Wire, Report, any) { return Wire{Skip: 1}, Report{}, Hidden{Secret: 1} }`,
			"cmd/main.go": `package main
import ("encoding/json"; "fmt"; "os"; "m/internal/a")
func main() {
	_, r, h := a.Build()
	json.NewEncoder(os.Stdout).Encode(&r)
	fmt.Println(h)
}`,
		},
		unread: []string{
			"internal/a/a.go:4: a.Wire.Skip has no shipped reader",
			"internal/a/a.go:11: a.Hidden.Secret has no shipped reader",
		},
	}, {
		name: "an embedded field a promoted selection passes through is read, and so is a nested anonymous struct",
		files: map[string]string{
			"internal/a/a.go": `package a
type Base struct{ ID int }
type Item struct {
	Base
	Meta struct{ Tag, Unused string }
}
func New() Item { var it Item; it.ID = 1; it.Meta.Tag = "t"; return it }`,
			"cmd/main.go": `package main; import "m/internal/a"; func main() { it := a.New(); _ = it.ID; _ = it.Meta.Tag }`,
		},
		unread: []string{"internal/a/a.go:5: a.Item.Meta.Unused has no shipped reader"},
	}, {
		name: "allowlist entries naming a read field, or no field, fail",
		files: map[string]string{
			"internal/a/a.go": counters,
			"cmd/main.go":     `package main; import "m/internal/a"; func main() { st := a.New("m").Stats(); _ = st.Hits + st.Misses }`,
		},
		allow:    map[string]string{"a.Server.name": "seam", "a.Server.n": "seam", "a.Stats.Hits": "has a reader", "a.Stats.Gone": "deleted"},
		problems: 2,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for path, src := range c.files {
				full := filepath.Join(dir, filepath.FromSlash(path))
				if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fset := token.NewFileSet()
			pkgs := map[string]*srcPackage{}
			if err := loadModule(fset, dir, "m", pkgs); err != nil {
				t.Fatal(err)
			}
			unread, problems, err := fieldGate(fset, pkgs, c.allow)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range unread {
				got = append(got, strings.TrimPrefix(f.String(), filepath.ToSlash(dir)+"/"))
			}
			if strings.Join(got, "\n") != strings.Join(c.unread, "\n") {
				t.Errorf("unread:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(c.unread, "\n"))
			}
			if len(problems) != c.problems {
				t.Errorf("allowlist problems %q, want %d", problems, c.problems)
			}
		})
	}
}

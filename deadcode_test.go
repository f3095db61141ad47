package filtering_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
	fset := token.NewFileSet()
	pkgs := map[string]*srcPackage{}
	for _, m := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		if err := loadModule(fset, m.dir, m.path, pkgs); err != nil {
			t.Fatal(err)
		}
	}
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
			return nil, err
		}
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

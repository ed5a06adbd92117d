// The check has no concurrency for the race detector to watch; under
// -race it would only type-check the same code several times slower.

//go:build !race

package edtrace

import (
	"errors"
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

// testOnlyKeep lists the exported identifiers of the root package and
// internal/ that no non-test file references and that stay anyway. Each
// entry names its kind:
//
//   - "reference": a reference implementation a test holds production
//     code equal to;
//   - "accessor": a read-only accessor through which a test asserts state
//     the program keeps for itself;
//   - "search": one of ed2k's search-expression constructors, which
//     together with the ones the programs call spell every expression the
//     protocol has.
//
// Keys are the package path relative to the module, then the identifier,
// with a method or field qualified by its type.
var testOnlyKeep = map[string]string{
	"internal/anonymize.NewClientDirect":             "reference",
	"internal/anonymize.ClientDirect.Anonymize":      "reference",
	"internal/anonymize.ClientDirect.Count":          "reference",
	"internal/anonymize.ClientDirect.Lookup":         "reference",
	"internal/anonymize.ClientDirect.MemoryBytes":    "reference",
	"internal/anonymize.ClientDirect.PagesAllocated": "reference",
	"internal/anonymize.NewFileMap":                  "reference",
	"internal/anonymize.FileMap.Anonymize":           "reference",
	"internal/anonymize.FileMap.Count":               "reference",
	"internal/anonymize.NewFileSingleSorted":         "reference",
	"internal/anonymize.FileSingleSorted.Anonymize":  "reference",
	"internal/anonymize.FileSingleSorted.Count":      "reference",
	"internal/ed2k.SearchExpr.Matches":               "reference",

	"internal/ed2k.Or":         "search",
	"internal/ed2k.AndNot":     "search",
	"internal/ed2k.SizeAtMost": "search",

	"internal/anonymize.FileBuckets.Lookup":       "accessor",
	"internal/edmesh.Mesh.Peers":                  "accessor",
	"internal/netsim.Reassembler.PendingCount":    "accessor",
	"internal/pcap.Reader.Count":                  "accessor",
	"internal/pcap.Reader.SnapLen":                "accessor",
	"internal/pcap.Writer.Count":                  "accessor",
	"internal/policy.Engine.Shedding":             "accessor",
	"internal/server.Server.Metrics":              "accessor",
	"internal/server.Server.Users":                "accessor",
	"internal/simtime.Scheduler.Fired":            "accessor",
	"internal/simtime.Scheduler.Pending":          "accessor",
	"internal/stats.IntHist.Count":                "accessor",
	"internal/stats.IntHist.Max":                  "accessor",
	"internal/stats.IntHist.Quantile":             "accessor",
	"internal/tcpsim.FlowReassembler.ActiveFlows": "accessor",
	"internal/workload.Engine.MaxActiveSeen":      "accessor",
	"internal/workload.Engine.Sessions":           "accessor",
	"internal/xmlenc.Decoder.Meta":                "accessor",
}

// TestNoTestOnlyExports fails on any exported identifier of the root
// package or internal/ that no non-test Go file of the module references
// (bench/, cmd/ and examples/ count) and that testOnlyKeep does not list.
// A method that lets its type satisfy some interface counts as called
// through it, and a field set by an unkeyed composite literal as used.
func TestNoTestOnlyExports(t *testing.T) {
	m := loadModule(t)
	unused := map[string]bool{}
	var dead []string
	for _, key := range m.unreferenced() {
		unused[key] = true
		if _, ok := testOnlyKeep[key]; !ok {
			dead = append(dead, key)
		}
	}
	for key, kind := range testOnlyKeep {
		switch {
		case kind != "reference" && kind != "accessor" && kind != "search":
			t.Errorf("keep-list entry %s: unknown kind %q", key, kind)
		case !m.declared[key]:
			t.Errorf("keep-list entry %s names nothing the module declares", key)
		case !unused[key]:
			t.Errorf("keep-list entry %s has a non-test caller; drop it from the list", key)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers have no non-test caller; delete them, unexport them, or list them with their kind in testOnlyKeep:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// module is every package of the module, type-checked from its non-test
// files in one universe, so that an object referenced from another package
// is the object its own package declared.
type module struct {
	path     string // module path, from go.mod
	fset     *token.FileSet
	std      types.ImporterFrom
	dirs     map[string]string // import path → directory
	pkgs     map[string]*modPkg
	declared map[string]bool // keys of every checked identifier
}

type modPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func loadModule(t *testing.T) *module {
	t.Helper()
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := &module{
		fset:     token.NewFileSet(),
		dirs:     map[string]string{},
		pkgs:     map[string]*modPkg{},
		declared: map[string]bool{},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			m.path = strings.TrimSpace(rest)
		}
	}
	m.std = importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	// A package is a directory holding Go files. Other directories (the
	// benchmark's scratch output among them) may come and go meanwhile.
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return nil
		case err != nil:
			return err
		case d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		ip := m.path
		if dir := filepath.Dir(p); dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		m.dirs[ip] = filepath.Dir(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.dirs {
		if _, err := m.load(ip); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.dirs[path]; ok {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// load type-checks one package of the module from the files a plain build
// compiles; a directory with no such files gives a nil package.
func (m *module) load(ip string) (*modPkg, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	m.pkgs[ip] = nil
	bp, err := build.Default.ImportDir(m.dirs[ip], 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(ip, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &modPkg{pkg: pkg, files: files, info: info}
	m.pkgs[ip] = p
	return p, nil
}

// checked reports whether ip's exported identifiers are subject to the
// rule: the root package and everything under internal/.
func (m *module) checked(ip string) bool {
	return ip == m.path || strings.HasPrefix(ip, m.path+"/internal/")
}

// key names obj for the keep-list and the failure message.
func (m *module) key(obj types.Object, owner string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), m.path), "/")
	if rel == "" {
		rel = "."
	}
	if owner != "" {
		return rel + "." + owner + "." + obj.Name()
	}
	return rel + "." + obj.Name()
}

// unreferenced returns the keys of the checked exported identifiers that
// no non-test file references outside their own declaration, sorted, and
// records every checked key in m.declared.
func (m *module) unreferenced() []string {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range m.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			m.markUses(p, f, used)
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	// Interfaces of the standard library a value may reach without the
	// module naming them (fmt.Stringer, error, sort.Interface, ...).
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		if p != nil {
			walk(p.pkg)
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	satisfies := func(named *types.Named, method string) bool {
		ptr := types.NewPointer(named)
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(ptr, it)) {
					return true
				}
			}
		}
		return false
	}

	var dead []string
	for ip, p := range m.pkgs {
		if p == nil || !m.checked(ip) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				m.declared[m.key(obj, "")] = true
				if !used[obj] {
					dead = append(dead, m.key(obj, ""))
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() {
					continue
				}
				k := m.key(fn, tn.Name())
				m.declared[k] = true
				if !used[fn] && !satisfies(named, fn.Name()) {
					dead = append(dead, k)
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if !f.Exported() || f.Embedded() {
						continue
					}
					k := m.key(f, tn.Name())
					m.declared[k] = true
					if !used[f] {
						dead = append(dead, k)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					fn := u.ExplicitMethod(i)
					if !fn.Exported() {
						continue
					}
					k := m.key(fn, tn.Name())
					m.declared[k] = true
					if !used[fn] {
						dead = append(dead, k)
					}
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// markUses records in used every object f references outside that
// object's own declaration: a function's body does not keep it alive, nor
// does a type's own declaration or its methods' receivers.
func (m *module) markUses(p *modPkg, f *ast.File, used map[types.Object]bool) {
	var self []types.Object // objects whose declaration encloses the node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			owners := []types.Object{p.info.Defs[n.Name]}
			if n.Recv != nil && len(n.Recv.List) > 0 {
				if tn := recvTypeName(p.info, n.Recv.List[0].Type); tn != nil {
					owners = append(owners, tn)
				}
			}
			self = append(self, owners...)
			ast.Inspect(n.Type, visit)
			if n.Recv != nil {
				ast.Inspect(n.Recv, visit)
			}
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			self = self[:len(self)-len(owners)]
			return false
		case *ast.TypeSpec:
			self = append(self, p.info.Defs[n.Name])
			ast.Inspect(n.Type, visit)
			self = self[:len(self)-1]
			return false
		case *ast.ValueSpec:
			// "var _ I = (*T)(nil)" asserts that T satisfies I; it calls
			// nothing.
			blank := true
			for _, name := range n.Names {
				blank = blank && name.Name == "_"
			}
			return !blank
		case *ast.CompositeLit:
			// An unkeyed struct literal sets every field by position.
			if tv, ok := p.info.Types[n]; ok && len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					if st, ok := tv.Type.Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							used[st.Field(i).Origin()] = true
						}
					}
				}
			}
		case *ast.Ident:
			obj := p.info.Uses[n]
			if obj == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			for _, s := range self {
				if s == obj {
					return true
				}
			}
			used[obj] = true
		}
		return true
	}
	ast.Inspect(f, visit)
}

// recvTypeName returns the type a method's receiver expression names.
func recvTypeName(info *types.Info, expr ast.Expr) *types.TypeName {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			tn, _ := info.Uses[e].(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

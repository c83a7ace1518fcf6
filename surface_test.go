package hybridtree_bench

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// hooks are exported names kept on purpose without a caller: names → why.
var hooks = map[string]string{
	"concurrent.Executor.Do": "the admission primitive Search wraps; server tests hold slots with it",
	"core.IndexSplitCandidate core.LevelStats nodestore.Codec obs.Collector obs.StageSet perf.Finding":                "named by used signatures and fields; their users never spell them",
	"core.Tree.Pin core.Tree.Reclaim core.Tree.RetiredVersions els.Table.Snapshot wal.File.OverlayPages wal.File.Seq": "MVCC, ELS and WAL state that core's and concurrent's tests assert on",
	"geom.Rect.Equal loadgen.Report.Responses obs.Histogram.Count obs.NewRegistry obs.Ring.Total":                     "equality, counts and private registries for other packages' tests",
	"nodestore.Store.DropCache pagefile.ChaosFile.SetRemaining pagefile.CrashFile.VolatilePages":                      "cold-cache and fault hooks of the baselines', core's and index's tests",
	"geom.Rect.MinkowskiVolume": "the paper's EDA cost term; ROADMAP item 13 decides its use",
	"sim.RunConcurrent sim.ConcurrentConfig sim.ConcurrentResult sim.Replay": "the concurrent oracle and trace replay; ROADMAP items 6 and 5 give them callers",
}

// TestExportedSurface holds internal/ to what is called: each exported
// function, method and type is used by non-test code (cmd/, examples/,
// benchmark/, a package) outside its file, implements an interface, or is hooked.
func TestExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	pkgs := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(path, "hybridtree/") // benchmark/'s module is hybridtree/benchmark
		if !ok {
			return std.Import(path)
		} else if p, seen := pkgs[path]; seen {
			return p, nil
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, _ := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0) // go build has parsed it
			files = append(files, f)
		}
		if err == nil {
			pkgs[path], err = (&types.Config{Importer: imp}).Check(path, fset, files, info)
		}
		return pkgs[path], err
	}
	sources, _ := filepath.Glob("*/*/*.go")
	for _, src := range append(sources, "benchmark/main.go") {
		if _, err := imp("hybridtree/" + filepath.Dir(src)); err != nil {
			t.Fatal(err)
		}
	}

	file := func(p token.Pos) string { return fset.Position(p).Filename }
	used, ifaces := map[types.Object]bool{}, map[*types.Interface]bool{}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = used[obj] || file(id.Pos()) != file(obj.Pos())
	}
	for e, tv := range info.Types { // a value of a type uses the type
		typ := tv.Type
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if n, ok := typ.(*types.Named); ok && file(e.Pos()) != file(n.Obj().Pos()) {
			used[n.Origin().Obj()] = true
		}
		if it, ok := typ.Underlying().(*types.Interface); ok {
			ifaces[it] = true
		}
	}
	hooked := map[string]bool{}
	for names := range hooks {
		for _, name := range strings.Fields(names) {
			hooked[name] = true
		}
	}
	check := func(name string, obj types.Object) {
		if obj.Exported() && used[obj] == hooked[name] && !strings.Contains(" String MarshalJSON ", " "+obj.Name()+" ") {
			t.Errorf("%s: used by non-test code outside its file %v, hooked %v", name, used[obj], hooked[name])
		}
		delete(hooked, name)
	}
	for path, p := range pkgs {
		pkg, ok := strings.CutPrefix(path, "hybridtree/internal/")
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if _, fn := obj.(*types.Func); ok && fn {
				check(pkg+"."+name, obj)
			} else if tn, _ := obj.(*types.TypeName); ok && tn != nil && tn.Exported() && !tn.IsAlias() {
				check(pkg+"."+name, obj)
				n := tn.Type().(*types.Named)
			methods:
				for i := 0; i < n.NumMethods(); i++ {
					for it := range ifaces { // a method an interface calls is exempt
						if m, _, _ := types.LookupFieldOrMethod(it, false, nil, n.Method(i).Name()); m != nil && types.Implements(types.NewPointer(n), it) {
							continue methods
						}
					}
					check(pkg+"."+name+"."+n.Method(i).Name(), n.Method(i))
				}
			}
		}
	}
	for name := range hooked {
		t.Errorf("hooks lists %s, which is not an exported name", name)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

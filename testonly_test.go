package multisite_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions and methods under internal/ that
// no non-test code calls but that stay anyway, keyed as "pkg.Func" or
// "pkg.Type.Method"; a bare "pkg" covers a whole package.
var testOnlyAllowed = map[string]string{
	"fleettest":                          "in-process fleet harness the server, gateway and fleet tests share",
	"benchdata.PropSpec":                 "property-test fixture shared by the tests of four packages",
	"benchdata.PropATE":                  "property-test fixture shared by the tests of four packages",
	"benchdata.AdversarialATE":           "property-test fixture shared by the tests of four packages",
	"tam.ParseArchitectureString":        "test fixture parser shared by the tam, core and server tests",
	"sched.MeasuredExpectedCyclesScalar": "scalar twin the gated MeasuredExpectedCyclesD695/scalar benchmark calls",
	"sim.ExpectedAbortSavingsScalar":     "scalar twin the gated ExpectedAbortSavings/scalar benchmark calls",
}

// TestNoTestOnlyExports fails on any function or method under internal/,
// exported or not (init aside), that no non-test Go file of the
// repository references: production code whose only consumer is a test.
// cmd/, examples/ and the benchmark module count as callers. A method
// also counts as used when its type satisfies an interface, visible to
// non-test code, that has the method, since a dynamic call reaches it
// without naming it. Build constraints are honoured for the host
// platform.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := loadNonTest(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	checked, infos, err := typeCheck(fset, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}

	// Every function and method declared in internal/ but init.
	decls := map[*types.Func]token.Pos{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "multisite/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					decls[infos[p.path].Defs[fd.Name].(*types.Func)] = fd.Pos()
				}
			}
		}
	}

	// refs[fn] holds, per reference to fn, the declared function whose
	// body makes it, or nil for any other non-test code. A function's
	// references to itself are left out.
	refs := map[*types.Func][]*types.Func{}
	for _, p := range pkgs {
		info := infos[p.path]
		for _, f := range p.files {
			for _, d := range f.Decls {
				var from *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						if _, declared := decls[fn]; declared {
							from = fn
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := info.Uses[id].(*types.Func); ok {
						if fn = fn.Origin(); fn != from {
							if _, declared := decls[fn]; declared {
								refs[fn] = append(refs[fn], from)
							}
						}
					}
					return true
				})
			}
		}
	}

	// A function is used when something that is itself used or kept
	// refers to it, so code only unused functions call is reported too.
	ifaces := usedInterfaces(checked, infos)
	used := map[*types.Func]bool{}
	for fn := range decls {
		used[fn] = satisfiesUsedInterface(fn, ifaces)
	}
	kept := func(fn *types.Func) bool {
		_, ok := testOnlyAllowed[funcKey(fn)]
		_, pkgOK := testOnlyAllowed[fn.Pkg().Name()]
		return ok || pkgOK
	}
	for changed := true; changed; {
		changed = false
		for fn, froms := range refs {
			for _, from := range froms {
				if !used[fn] && (from == nil || used[from] || kept(from)) {
					used[fn], changed = true, true
				}
			}
		}
	}

	var unused []string
	for fn, pos := range decls {
		key := funcKey(fn)
		_, listed := testOnlyAllowed[key]
		switch {
		case used[fn] && listed:
			t.Errorf("%s: allowlisted as test-only, but non-test code uses it; drop the entry", key)
		case !used[fn] && !kept(fn):
			unused = append(unused, fmt.Sprintf("%s (%s)", key, fset.Position(pos)))
		}
	}
	keys := map[string]bool{}
	for fn := range decls {
		keys[funcKey(fn)] = true
		keys[fn.Pkg().Name()] = true
	}
	for key := range testOnlyAllowed {
		if !keys[key] {
			t.Errorf("%s: allowlisted, but no such function, method or package under internal/", key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d functions or methods under internal/ have no non-test caller; "+
			"delete them, or move a test's reference code into its _test.go:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// nonTestPkg is one directory's non-test Go files, parsed.
type nonTestPkg struct {
	path    string
	imports []string
	files   []*ast.File
}

// loadNonTest parses the non-test Go files of every package below root,
// the nested benchmark module included (its "multisite/benchmark" path
// follows the same directory layout). go/build selects the files, so
// build constraints and _test.go suffixes are honoured.
func loadNonTest(fset *token.FileSet, root string) ([]*nonTestPkg, error) {
	var pkgs []*nonTestPkg
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &nonTestPkg{path: "multisite", imports: bp.Imports}
		if dir != root {
			p.path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return pkgs, err
}

// stdImporter imports standard-library packages from compiler export
// data, located by one `go list -export` over every path the repository
// imports from outside itself.
func stdImporter(fset *token.FileSet, pkgs []*nonTestPkg) (types.Importer, error) {
	paths := map[string]bool{}
	for _, p := range pkgs {
		for _, imp := range p.imports {
			if imp != "multisite" && !strings.HasPrefix(imp, "multisite/") && imp != "unsafe" {
				paths[imp] = true
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range paths {
		args = append(args, path)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

// repoImporter serves the repository's own packages from those already
// checked and everything else from the standard library's export data.
type repoImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (im repoImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.checked[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// typeCheck checks the packages in dependency order and returns each
// one's types.Package and the Info of its non-test files.
func typeCheck(fset *token.FileSet, pkgs []*nonTestPkg, std types.Importer) (map[string]*types.Package, map[string]*types.Info, error) {
	byPath := map[string]*nonTestPkg{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	im := repoImporter{std: std, checked: map[string]*types.Package{}}
	infos := map[string]*types.Info{}
	var visit func(p *nonTestPkg) error
	visit = func(p *nonTestPkg) error {
		if _, ok := infos[p.path]; ok {
			return nil
		}
		infos[p.path] = nil // an import cycle would fail to type-check below
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			return fmt.Errorf("type-check %s: %v", p.path, err)
		}
		im.checked[p.path] = pkg
		infos[p.path] = info
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, nil, err
		}
	}
	return im.checked, infos, nil
}

// usedInterfaces returns the interfaces through which non-test code can
// call a method without naming it: every interface type its expressions
// have, and every interface declared at package level in a package it
// imports, directly or not (error, fmt.Stringer, json.Marshaler, ...).
func usedInterfaces(checked map[string]*types.Package, infos map[string]*types.Info) []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			add(tv.Type)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	add(types.Universe.Lookup("error").Type())
	return out
}

// satisfiesUsedInterface reports whether fn is a method whose receiver
// type, or a pointer to it, implements one of ifaces that has a method
// of fn's name. The Is, As and Unwrap methods of an error count too:
// errors.Is and errors.As call them through interfaces they do not
// export.
func satisfiesUsedInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := recv.Type()
	if ptr, ok := named.(*types.Pointer); ok {
		named = ptr.Elem()
	}
	implements := func(it *types.Interface) bool {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	}
	switch fn.Name() {
	case "Is", "As", "Unwrap":
		if implements(types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) {
			return true
		}
	}
	for _, it := range ifaces {
		if hasMethod(it, fn.Name()) && implements(it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// funcKey names fn as "pkg.Func" or "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		key += t.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}

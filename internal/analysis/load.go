package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package loading. The x/tools go/packages loader is unavailable (this
// module carries no external dependencies), so we reproduce its "export
// data for dependencies, syntax for targets" mode on the standard
// library: `go list -export -deps -json` enumerates the packages
// matching the patterns plus everything they import, compiling each
// dependency's export data into the build cache; the target packages are
// then parsed and type-checked from source with an importer that reads
// those export files. Each target checks independently — its in-module
// imports resolve through export data exactly like stdlib ones.

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path.
	PkgPath string
	// Name is the package name.
	Name string
	// Dir is the package directory.
	Dir string
	// GoFiles are the parsed source files (absolute paths).
	GoFiles []string
	// Fset is the file set all Syntax positions resolve against (shared
	// by every package of one Load).
	Fset *token.FileSet
	// Syntax are the parsed files, parallel to GoFiles.
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo records the type of every expression in Syntax.
	TypesInfo *types.Info
}

// LoadError aggregates everything that went wrong during a Load: list
// failures, parse errors, and type errors, each prefixed with its
// package.
type LoadError struct {
	Problems []string
}

// Error lists every problem, one per line.
func (e *LoadError) Error() string {
	return strings.Join(e.Problems, "\n")
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Error      *struct {
		Err string
	}
}

// Load loads and type-checks the packages matching patterns, resolved
// relative to dir. Returns the target packages (dependencies are
// consumed as export data only) sorted by import path. On failure the
// error is a *LoadError listing every problem; packages that did load
// are still returned.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Hermetic listing: everything must resolve from the module and the
	// local build cache; never touch the network.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil && stdout.Len() == 0 {
		return nil, &LoadError{Problems: []string{
			fmt.Sprintf("go list %s: %v: %s", strings.Join(patterns, " "), err, strings.TrimSpace(stderr.String())),
		}}
	}

	var le LoadError
	exports := map[string]string{} // import path -> export data file
	var targets []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			le.Problems = append(le.Problems, fmt.Sprintf("go list: decoding output: %v", err))
			break
		}
		if p.Error != nil {
			le.Problems = append(le.Problems, fmt.Sprintf("%s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err)))
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Name != "" && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, t := range targets {
		pkg, errs := typecheck(fset, t, exports)
		if len(errs) > 0 {
			for _, e := range errs {
				le.Problems = append(le.Problems, fmt.Sprintf("%s: %v", t.ImportPath, e))
			}
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	if len(le.Problems) > 0 {
		return pkgs, &le
	}
	return pkgs, nil
}

// typecheck parses and checks one target package from source, resolving
// its imports through the export files go list produced.
func typecheck(fset *token.FileSet, p listPkg, exports map[string]string) (*Package, []error) {
	var errs []error
	files := make([]string, 0, len(p.GoFiles))
	syntax := make([]*ast.File, 0, len(p.GoFiles))
	for _, f := range p.GoFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, f)
		}
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		files = append(files, path)
		syntax = append(syntax, af)
	}
	if len(errs) > 0 {
		return nil, errs
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error: func(err error) {
			errs = append(errs, err)
		},
	}
	tpkg, _ := conf.Check(p.ImportPath, fset, syntax, info)
	if len(errs) > 0 {
		return nil, errs
	}
	return &Package{
		PkgPath:   p.ImportPath,
		Name:      p.Name,
		Dir:       p.Dir,
		GoFiles:   files,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

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
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one entry of `go list -json` output — just the fields the
// driver needs to load and typecheck the package from source.
type Package struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Error      *PackageError
}

// PackageError is go list's per-package load error (reported with -e
// instead of aborting the whole listing).
type PackageError struct {
	Err string
}

// GoList enumerates the packages matching the patterns by shelling out to
// `go list -e -json` in dir. It keeps the driver at zero dependencies: the
// go command is the module-aware package loader the toolchain already
// ships.
func GoList(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("analysis: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	return ParseGoList(&stdout)
}

// ParseGoList decodes a stream of `go list -json` package objects.
func ParseGoList(r io.Reader) ([]*Package, error) {
	dec := json.NewDecoder(r)
	var pkgs []*Package
	for dec.More() {
		p := new(Package)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("analysis: parsing go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Checker parses and typechecks packages from source. One Checker shares a
// file set and an import cache across packages, so a whole-repo run
// typechecks each dependency once.
type Checker struct {
	fset *token.FileSet
	imp  types.Importer
}

// sharedImport is the process-wide import cache every NewChecker shares:
// one file set and one source importer for the life of the process. The
// source importer typechecks each dependency from source the first time it
// is asked and memoizes the result, so hoisting one instance across the
// run (and across test cases) pays that cost once instead of once per
// Checker — BenchmarkImporter measures the difference. The importer is not
// safe for concurrent use, so Import calls are serialized by mu; the
// completed *types.Package values it hands back are immutable, so
// concurrent Checkers read them freely (and token.FileSet locks itself).
var sharedImport struct {
	once sync.Once
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.Importer
}

// lockedImporter funnels Import calls into the shared source importer
// under its mutex, making the shared cache safe for parallel Checkers.
type lockedImporter struct{}

func (lockedImporter) Import(path string) (*types.Package, error) {
	sharedImport.mu.Lock()
	defer sharedImport.mu.Unlock()
	return sharedImport.imp.Import(path)
}

// NewChecker returns a Checker whose imports resolve through the stdlib
// source importer (module-aware via the go command; no binary export data
// and no x/tools). All Checkers share one process-wide file set and import
// cache — see sharedImport.
func NewChecker() *Checker {
	sharedImport.once.Do(func() {
		sharedImport.fset = token.NewFileSet()
		sharedImport.imp = importer.ForCompiler(sharedImport.fset, "source", nil)
	})
	return &Checker{fset: sharedImport.fset, imp: lockedImporter{}}
}

// newIsolatedChecker builds a Checker with a private file set and importer
// — no shared cache. It exists so the importer benchmark can measure what
// sharing saves; production paths always use NewChecker.
func newIsolatedChecker() *Checker {
	fset := token.NewFileSet()
	return &Checker{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Check parses the package's GoFiles and typechecks them, returning a Pass
// ready for Analyze. Typecheck and parse errors are surfaced, not
// swallowed: an unanalyzable package fails the run.
func (c *Checker) Check(pkg *Package) (*Pass, error) {
	if pkg.Error != nil {
		return nil, fmt.Errorf("analysis: loading %s: %s", pkg.ImportPath, strings.TrimSpace(pkg.Error.Err))
	}
	var paths []string
	for _, name := range pkg.GoFiles {
		paths = append(paths, filepath.Join(pkg.Dir, name))
	}
	return c.check(pkg.ImportPath, paths)
}

// CheckDir typechecks every non-test .go file in dir as one package under
// the given import path — the ad-hoc loader the testdata harness uses for
// packages the go tool deliberately cannot see (directories under
// testdata/).
func (c *Checker) CheckDir(dir, importPath string) (*Pass, error) {
	list, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, p := range list {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return c.check(importPath, paths)
}

func (c *Checker) check(importPath string, paths []string) (*Pass, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(c.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: c.imp}
	pkg, err := conf.Check(importPath, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %w", importPath, err)
	}
	return &Pass{
		Fset:       c.fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		ImportPath: importPath,
	}, nil
}

// Run is the whole pipeline: list the patterns in dir, typecheck each
// matched package and collect its facts in go-list order, run the
// analyzers over the merged package graph (one AnalyzeGraph call, so
// interprocedural analyzers see cross-package edges), and return every
// surviving finding sorted by position. Packages without Go files (e.g.
// pure-test packages) are skipped. The first package that fails to
// typecheck, in go-list order, is the error. Packages are checked one at
// a time: every import goes through the one shared importer anyway.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := GoList(dir, patterns)
	if err != nil {
		return nil, err
	}
	c := NewChecker()
	var passes []*Pass
	var facts []*PkgFacts
	for _, pkg := range pkgs {
		if pkg.Error == nil && len(pkg.GoFiles) == 0 {
			continue // pure-test or empty package: nothing to analyze
		}
		pass, err := c.Check(pkg)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
		facts = append(facts, CollectFacts(pass))
	}
	return AnalyzeGraph(passes, facts, analyzers), nil
}

// jsonDiagnostic is the machine-readable diagnostic schema of
// `tracelint -json` — stable field names, one object per finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON writes the diagnostics as an indented JSON array (an empty
// array — never null — when there are no findings).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// Summary renders the per-analyzer finding counts as one line, e.g.
// "3 findings (clockrand=1, detrange=2)" — the text CI prints when the
// gate trips, instead of raw tool output.
func Summary(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "no findings"
	}
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, counts[n])
	}
	noun := "findings"
	if len(diags) == 1 {
		noun = "finding"
	}
	return fmt.Sprintf("%d %s (%s)", len(diags), noun, strings.Join(parts, ", "))
}

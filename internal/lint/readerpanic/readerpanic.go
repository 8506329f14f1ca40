// Package readerpanic is a custom vet pass enforcing the chain.Reader
// failure contract: a fallible Reader implementation (the resilient
// client) reports a terminal read failure by panicking with a
// *chain.ReadError, and every code path that performs Reader reads must
// therefore run under chain.CaptureReadError — otherwise one contract's
// exhausted retries crash the whole process instead of degrading that
// contract to Unresolved.
//
// The pass is intraprocedural-plus-closure, built on the standard
// library's go/ast alone (the go/analysis framework lives in
// golang.org/x/tools, which this zero-dependency module does not pull
// in). Per package it:
//
//  1. collects the names declared with type chain.Reader (struct
//     fields, parameters, variables, method receivers) — the "reader
//     names";
//  2. treats a call reader.M(...) or x.reader.M(...) for a Reader
//     interface method M as a read site;
//  3. marks a read site guarded when it sits lexically inside the
//     function literal passed to chain.CaptureReadError — a literal
//     launched with `go` resets the guard, because a panic in a fresh
//     goroutine escapes any recover on the spawning stack;
//  4. seeds a "capture-dominated" set with the same-package functions
//     called inside capture literals and closes it over the
//     same-package call graph: everything a dominated function calls
//     also runs under the capture.
//
// A read site that is neither lexically guarded nor inside a
// capture-dominated function is a finding. The package defining the
// contract (chain) and the package implementing the panicking client
// (faultchain) are exempt, as are _test.go files — tests exercise the
// contract deliberately. A `readerpanic:ignore` comment on the line of
// the call (or the line above) suppresses a finding for code whose
// guard lives across a package boundary the pass cannot see.
package readerpanic

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// readerMethods are the chain.Reader interface methods that hit the node
// and may therefore panic on a fallible implementation. APICalls is
// deliberately absent: the contract defines it as a local race-free
// counter, never a node round-trip.
var readerMethods = map[string]bool{
	"Config": true, "CurrentBlock": true, "LatestHeader": true,
	"HeaderByNumber": true, "Contracts": true, "Code": true,
	"CodeHash": true, "CreatedAt": true, "Exists": true,
	"GetState": true, "GetBalance": true, "GetNonce": true,
	"TxSelectors": true, "GetStorageAt": true, "BlockDelta": true,
}

// exemptPackages either define the contract or implement the panicking
// side of it.
var exemptPackages = map[string]bool{"chain": true, "faultchain": true}

// Finding is one unguarded Reader read.
type Finding struct {
	Pos  token.Position
	Func string // enclosing function ("" at package scope)
	Call string // rendered call target, e.g. "d.chain.GetState"
}

func (f Finding) String() string {
	where := f.Func
	if where == "" {
		where = "package scope"
	}
	return fmt.Sprintf("%s: %s called in %s outside chain.CaptureReadError",
		f.Pos, f.Call, where)
}

// CheckPackage analyzes one package's parsed files (tests excluded by the
// caller) and returns the unguarded read sites.
func CheckPackage(fset *token.FileSet, pkgName string, files []*ast.File) []Finding {
	if exemptPackages[pkgName] {
		return nil
	}
	p := &pass{fset: fset, readers: map[string]bool{}, fileIgnores: map[string]map[int]bool{}}
	for _, f := range files {
		p.collectReaderNames(f)
		p.collectIgnores(f)
	}
	for _, f := range files {
		p.collectSites(f)
	}
	p.closeDominated()
	var out []Finding
	for _, s := range p.sites {
		if s.guarded || p.dominated[s.fn] || p.ignored(s.pos) {
			continue
		}
		out = append(out, Finding{Pos: p.fset.Position(s.pos), Func: s.fn, Call: s.call})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

type site struct {
	pos     token.Pos
	fn      string // enclosing function name ("" at package scope)
	call    string
	guarded bool
}

type pass struct {
	fset         *token.FileSet
	readers      map[string]bool         // names declared with type chain.Reader
	fileIgnores  map[string]map[int]bool // file -> lines a readerpanic:ignore covers
	ignoredFiles []string                // files carrying readerpanic:ignore-file
	sites        []site
	// seeds are same-package functions invoked inside capture literals;
	// calls maps each function to every same-package-looking callee name.
	seeds     map[string]bool
	calls     map[string]map[string]bool
	funcs     map[string]bool // declared function/method names in the package
	dominated map[string]bool
}

// isReaderType reports whether an ast type expression is chain.Reader.
func isReaderType(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Reader" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "chain"
}

// collectReaderNames gathers every identifier declared with the
// chain.Reader type: struct fields, function parameters and results,
// and var declarations.
func (p *pass) collectReaderNames(f *ast.File) {
	addNames := func(names []*ast.Ident, t ast.Expr) {
		if !isReaderType(t) {
			return
		}
		for _, n := range names {
			p.readers[n.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			addNames(n.Names, n.Type)
		case *ast.ValueSpec:
			if n.Type != nil {
				addNames(n.Names, n.Type)
			}
		}
		return true
	})
}

// collectIgnores records which lines a readerpanic:ignore comment
// covers: the comment's own line (trailing form) and the line below
// (preceding form). A readerpanic:ignore-file comment suppresses the
// whole file — for code whose capture guard is installed by a caller in
// another package (e.g. interface callbacks the emulator invokes only
// under the probe's capture).
func (p *pass) collectIgnores(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "readerpanic:ignore") {
				continue
			}
			pos := p.fset.Position(c.Pos())
			if strings.Contains(c.Text, "readerpanic:ignore-file") {
				p.ignoredFiles = append(p.ignoredFiles, pos.Filename)
				continue
			}
			m := p.fileIgnores[pos.Filename]
			if m == nil {
				m = map[int]bool{}
				p.fileIgnores[pos.Filename] = m
			}
			m[pos.Line] = true
			m[pos.Line+1] = true
		}
	}
}

func (p *pass) ignored(pos token.Pos) bool {
	pp := p.fset.Position(pos)
	for _, f := range p.ignoredFiles {
		if f == pp.Filename {
			return true
		}
	}
	return p.fileIgnores[pp.Filename][pp.Line]
}

// isCaptureCall reports whether a call expression is
// chain.CaptureReadError(...) (or a dot-imported CaptureReadError).
func isCaptureCall(c *ast.CallExpr) bool {
	switch fn := c.Fun.(type) {
	case *ast.SelectorExpr:
		id, ok := fn.X.(*ast.Ident)
		return ok && id.Name == "chain" && fn.Sel.Name == "CaptureReadError"
	case *ast.Ident:
		return fn.Name == "CaptureReadError"
	}
	return false
}

// readerCall returns the rendered target if c is a Reader read on a
// reader-typed name ("reader.Code", "d.chain.GetState").
func (p *pass) readerCall(c *ast.CallExpr) (string, bool) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || !readerMethods[sel.Sel.Name] {
		return "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		if p.readers[x.Name] {
			return x.Name + "." + sel.Sel.Name, true
		}
	case *ast.SelectorExpr:
		if p.readers[x.Sel.Name] {
			base := "?"
			if id, ok := x.X.(*ast.Ident); ok {
				base = id.Name
			}
			return base + "." + x.Sel.Name + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

// calleeName returns the bare name of a same-package-looking callee:
// foo(...) or recv.foo(...) where recv is not a package qualifier we can
// rule out. Conservative over-approximation — resolving method sets
// needs type information.
func calleeName(c *ast.CallExpr) (string, bool) {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name, true
	case *ast.SelectorExpr:
		return fn.Sel.Name, true
	}
	return "", false
}

// collectSites walks one file recording read sites, capture seeds, the
// package call graph, and declared function names.
func (p *pass) collectSites(f *ast.File) {
	if p.seeds == nil {
		p.seeds = map[string]bool{}
		p.calls = map[string]map[string]bool{}
		p.funcs = map[string]bool{}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			if gd, ok := decl.(*ast.GenDecl); ok {
				p.walkBody(gd, "", false)
			}
			continue
		}
		p.funcs[fd.Name.Name] = true
		if fd.Body != nil {
			p.walkBody(fd.Body, fd.Name.Name, false)
		}
	}
}

// walkBody records sites under node, attributed to function fn, with the
// given lexical guard state. It recurses manually so the guard can flip
// on capture literals and reset on `go` literals.
func (p *pass) walkBody(node ast.Node, fn string, guarded bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned function runs on a fresh stack: any recover
			// installed here does not cover it.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				for _, arg := range n.Call.Args {
					p.walkBody(arg, fn, guarded)
				}
				p.walkBody(lit.Body, fn, false)
				return false
			}
			return true
		case *ast.CallExpr:
			if isCaptureCall(n) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						p.seedCaptured(lit.Body)
						p.walkBody(lit.Body, fn, true)
					} else {
						p.walkBody(arg, fn, guarded)
					}
				}
				return false
			}
			if call, ok := p.readerCall(n); ok {
				p.sites = append(p.sites, site{pos: n.Pos(), fn: fn, call: call, guarded: guarded})
			}
			if callee, ok := calleeName(n); ok && fn != "" {
				m := p.calls[fn]
				if m == nil {
					m = map[string]bool{}
					p.calls[fn] = m
				}
				m[callee] = true
			}
			return true
		}
		return true
	})
}

// seedCaptured marks every callee inside a capture literal as a
// dominated-set seed.
func (p *pass) seedCaptured(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if name, ok := calleeName(c); ok {
				p.seeds[name] = true
			}
		}
		return true
	})
}

// closeDominated computes the transitive closure: a function called
// inside a capture literal is dominated, and so is everything a
// dominated function calls.
func (p *pass) closeDominated() {
	p.dominated = map[string]bool{}
	var queue []string
	for name := range p.seeds {
		if p.funcs[name] && !p.dominated[name] {
			p.dominated[name] = true
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for callee := range p.calls[fn] {
			if p.funcs[callee] && !p.dominated[callee] {
				p.dominated[callee] = true
				queue = append(queue, callee)
			}
		}
	}
}

// CheckDir parses the non-test Go files of one directory as a package
// and checks them. A directory with no Go files yields no findings.
func CheckDir(fset *token.FileSet, dir string) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		pkgName = f.Name.Name
	}
	if len(files) == 0 {
		return nil, nil
	}
	return CheckPackage(fset, pkgName, files), nil
}

// CheckTree walks root for Go packages (skipping hidden directories and
// testdata) and checks each one.
func CheckTree(root string) ([]Finding, error) {
	fset := token.NewFileSet()
	var out []Finding
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		found, err := CheckDir(fset, path)
		if err != nil {
			return err
		}
		out = append(out, found...)
		return nil
	})
	return out, err
}

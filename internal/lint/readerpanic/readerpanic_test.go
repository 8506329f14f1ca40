package readerpanic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// check parses one in-memory source file and runs the pass on it.
func check(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	return CheckPackage(fset, f.Name.Name, []*ast.File{f})
}

const header = `package fixture

import "repro/internal/chain"

type thing struct{ reader chain.Reader }
`

func TestFlagsUnguardedRead(t *testing.T) {
	fs := check(t, header+`
func (th *thing) bad(a Addr) []byte {
	return th.reader.Code(a)
}
`)
	if len(fs) != 1 {
		t.Fatalf("findings = %v, want exactly the raw Code read", fs)
	}
	if fs[0].Func != "bad" || fs[0].Call != "th.reader.Code" {
		t.Fatalf("finding = %+v", fs[0])
	}
}

func TestAcceptsLexicalGuard(t *testing.T) {
	fs := check(t, header+`
func (th *thing) ok(a Addr) (code []byte) {
	chain.CaptureReadError(func() { code = th.reader.Code(a) })
	return code
}
`)
	if len(fs) != 0 {
		t.Fatalf("guarded read flagged: %v", fs)
	}
}

func TestAcceptsCaptureDominatedCallee(t *testing.T) {
	fs := check(t, header+`
func (th *thing) entry(a Addr) (code []byte) {
	chain.CaptureReadError(func() { code = th.inner(a) })
	return code
}

func (th *thing) inner(a Addr) []byte { return th.deeper(a) }

func (th *thing) deeper(a Addr) []byte { return th.reader.Code(a) }
`)
	if len(fs) != 0 {
		t.Fatalf("capture-dominated read flagged: %v", fs)
	}
}

func TestFlagsUndominatedSibling(t *testing.T) {
	fs := check(t, header+`
func (th *thing) entry(a Addr) (code []byte) {
	chain.CaptureReadError(func() { code = th.inner(a) })
	return code
}

func (th *thing) inner(a Addr) []byte { return th.reader.Code(a) }

func (th *thing) stray(a Addr) []byte { return th.reader.Code(a) }
`)
	if len(fs) != 1 || fs[0].Func != "stray" {
		t.Fatalf("findings = %v, want exactly the read in stray", fs)
	}
}

// TestGoroutineEscapesGuard pins the subtle case: a panic inside a
// spawned goroutine is NOT covered by a recover on the spawning stack,
// so a `go` literal inside the capture must reset the guard.
func TestGoroutineEscapesGuard(t *testing.T) {
	fs := check(t, header+`
func (th *thing) leaky(a Addr) {
	chain.CaptureReadError(func() {
		go func() { _ = th.reader.Code(a) }()
	})
}
`)
	if len(fs) != 1 || fs[0].Func != "leaky" {
		t.Fatalf("findings = %v, want the goroutine-escaped read", fs)
	}
}

func TestParameterTypedReader(t *testing.T) {
	fs := check(t, `package fixture

import "repro/internal/chain"

func head(r chain.Reader) uint64 { return r.CurrentBlock() }
`)
	if len(fs) != 1 || fs[0].Call != "r.CurrentBlock" {
		t.Fatalf("findings = %v, want the parameter read", fs)
	}
}

// TestBlockDeltaIsAReaderRead: the follower's block-level read fails like
// any other (a replica behind the block panics a *ReadError), so it needs
// the guard like any other.
func TestBlockDeltaIsAReaderRead(t *testing.T) {
	fs := check(t, header+`
func (th *thing) bad(b uint64) int {
	return len(th.reader.BlockDelta(b).Written)
}

func (th *thing) ok(b uint64) (n int) {
	chain.CaptureReadError(func() { n = len(th.reader.BlockDelta(b).Written) })
	return n
}
`)
	if len(fs) != 1 || fs[0].Func != "bad" || fs[0].Call != "th.reader.BlockDelta" {
		t.Fatalf("findings = %v, want exactly the raw BlockDelta read", fs)
	}
}

func TestIgnoreComment(t *testing.T) {
	fs := check(t, header+`
func (th *thing) blessed(a Addr) []byte {
	return th.reader.Code(a) // readerpanic:ignore
}

func (th *thing) blessedAbove(a Addr) bool {
	// readerpanic:ignore
	return th.reader.Exists(a)
}
`)
	if len(fs) != 0 {
		t.Fatalf("ignored reads flagged: %v", fs)
	}
}

func TestIgnoreFileComment(t *testing.T) {
	fs := check(t, `package fixture

// readerpanic:ignore-file — fixture-wide escape.

import "repro/internal/chain"

type thing struct{ reader chain.Reader }

func (th *thing) anything(a Addr) []byte { return th.reader.Code(a) }
`)
	if len(fs) != 0 {
		t.Fatalf("ignore-file read flagged: %v", fs)
	}
}

func TestExemptPackagesAndLocalCounter(t *testing.T) {
	// Package faultchain implements the panicking side of the contract.
	fs := check(t, `package faultchain

import "repro/internal/chain"

type c struct{ inner chain.Reader }

func (x *c) raw(a Addr) []byte { return x.inner.Code(a) }
`)
	if len(fs) != 0 {
		t.Fatalf("exempt package flagged: %v", fs)
	}
	// APICalls is a local counter by contract, never a node read.
	fs = check(t, header+`
func (th *thing) count() int64 { return th.reader.APICalls() }
`)
	if len(fs) != 0 {
		t.Fatalf("APICalls flagged: %v", fs)
	}
}

// TestRepoIsClean is the self-test: the repository itself must satisfy
// the Reader contract the lint enforces.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CheckTree(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestOneByteMatch: a one-byte search finds, within its budget, a
// prototype whose selector starts with the target selector's first byte.
func TestOneByteMatch(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-bytes", "1"}, &stdout, io.Discard); err != nil {
		t.Fatalf("sigminer -bytes 1: %v", err)
	}
	target := regexp.MustCompile(`(?m)^target .* -> selector 0x([0-9a-f]{8})$`).FindStringSubmatch(stdout.String())
	found := regexp.MustCompile(`(?m)^found  impl_\S+\(\) -> selector 0x([0-9a-f]{8})$`).FindStringSubmatch(stdout.String())
	if target == nil || found == nil {
		t.Fatalf("output lacks the target or found line:\n%s", stdout.String())
	}
	if target[1][:2] != found[1][:2] {
		t.Errorf("found selector 0x%s does not share the first byte of target 0x%s", found[1], target[1])
	}
}

// TestBudgetExhausted: a full four-byte collision is out of reach of ten
// attempts, and the command says so as an error.
func TestBudgetExhausted(t *testing.T) {
	err := run([]string{"-bytes", "4", "-max", "10"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no match within 10 attempts") {
		t.Fatalf("sigminer -bytes 4 -max 10: err = %v, want the no-match error", err)
	}
}

// TestBytesOutOfRange: a selector has four bytes, so -bytes outside 1..4
// is a usage error, not a panic in the miner.
func TestBytesOutOfRange(t *testing.T) {
	for _, n := range []string{"0", "5"} {
		if err := run([]string{"-bytes", n}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "must be 1..4") {
			t.Errorf("sigminer -bytes %s: err = %v, want the range error", n, err)
		}
	}
}

package keccakref

import (
	"encoding/hex"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestFrozenVectors pins the reference itself, so the oracle cannot drift
// together with the kernel it checks.
func TestFrozenVectors(t *testing.T) {
	for in, want := range map[string]string{
		"":                               "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
		"abc":                            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
		strings.Repeat("0123456789", 20): "bebf7feb66ec4249f26ba898cab15d2eaf14ba4623b962a61eec09afde36ed67",
	} {
		got := Sum256([]byte(in))
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("Sum256(%q) = %x, want %s", in, got, want)
		}
	}
}

// TestOneKernelShips asserts that no command links this package: it is an
// oracle, reachable only from tests.
func TestOneKernelShips(t *testing.T) {
	const self = "repro/internal/keccak/keccakref"
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Name}}", "repro/cmd/...").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	var shipped []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, name, _ := strings.Cut(line, " "); name == "main" {
			shipped = append(shipped, path)
		}
	}
	for _, must := range []string{"repro/cmd/proxion", "repro/cmd/proxiond", "repro/cmd/proxwatch", "repro/cmd/proxbench"} {
		if !slices.Contains(shipped, must) {
			t.Fatalf("%s missing from the command list %v", must, shipped)
		}
	}
	deps, err := exec.Command("go", append([]string{"list", "-deps"}, shipped...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	if slices.Contains(strings.Fields(string(deps)), self) {
		t.Fatalf("a command (one of %v) links %s", shipped, self)
	}
}

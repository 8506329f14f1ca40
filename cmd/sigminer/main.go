// Command sigminer brute-forces a function name whose 4-byte selector
// collides with a target signature — the honeypot-crafting experiment of
// Section 2.3 (the paper found impl_LUsXCWD2AKCc() colliding with
// free_ether_withdrawal() after ~600M attempts).
//
// Usage:
//
//	sigminer [-target proto] [-prefix p] [-bytes n] [-max attempts]
//
// Matching all 4 bytes takes billions of hashes; -bytes 2 or 3 demonstrates
// the search in seconds and the tool extrapolates the full-collision cost.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/keccak"
	"repro/internal/sigminer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sigminer:", err)
		os.Exit(1)
	}
}

// run is the whole command over its arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sigminer", flag.ExitOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "free_ether_withdrawal()", "prototype to collide with")
	prefix := fs.String("prefix", "impl", "candidate name prefix")
	matchBytes := fs.Int("bytes", 2, "selector bytes to match (4 = real collision)")
	maxAttempts := fs.Uint64("max", 50_000_000, "attempt budget")
	fs.Parse(args)
	if *matchBytes < 1 || *matchBytes > 4 {
		return fmt.Errorf("-bytes %d: must be 1..4", *matchBytes)
	}

	sel := keccak.Selector(*target)
	fmt.Fprintf(stdout, "target %s -> selector 0x%x\n", *target, sel)
	fmt.Fprintf(stdout, "searching %s_* for a %d-byte match (budget %d)...\n",
		*prefix, *matchBytes, *maxAttempts)

	start := time.Now()
	res, ok := sigminer.Mine(sel, *prefix, *matchBytes, *maxAttempts)
	elapsed := time.Since(start)
	rate := float64(res.Attempts) / elapsed.Seconds()

	if !ok {
		return fmt.Errorf("no match within %d attempts (%.0f hashes/s)", res.Attempts, rate)
	}
	found := keccak.Selector(res.Prototype)
	fmt.Fprintf(stdout, "found  %s -> selector 0x%x\n", res.Prototype, found)
	fmt.Fprintf(stdout, "attempts: %d in %s (%.0f hashes/s)\n", res.Attempts, elapsed.Round(time.Millisecond), rate)
	if *matchBytes < 4 {
		full := (1 << 31) / rate // expected 2^32/2 hashes for a 4-byte match
		fmt.Fprintf(stdout, "extrapolated full 4-byte collision: ~%.1f minutes at this rate (paper: 600M attempts, 1.5h on a laptop)\n",
			full/60)
	}
	return nil
}

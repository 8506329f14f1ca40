//go:build !race

package evm_test

// raceEnabled reports a -race build.
const raceEnabled = false

//go:build race

package proxion

// raceEnabled reports a -race build.
const raceEnabled = true

//go:build race

package core

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a quarter of what it is given: allocation counts that
// rely on a pool are not fixed.
const raceEnabled = true

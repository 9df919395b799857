//go:build race

package scan

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so pooled batch buffers and arenas are not reliably
// reused and allocation guards over pooled paths do not hold.
const raceEnabled = true

//go:build race

package tam

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation allocates on the paths allocation tests time.
const raceEnabled = true

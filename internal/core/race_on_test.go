//go:build race

package core_test

// raceEnabled reports that the race detector is instrumenting this
// build. Its sync.Pool drops pooled buffers at random, so allocation
// counts taken under it measure the detector, not the engine.
const raceEnabled = true

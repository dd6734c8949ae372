//go:build race

package repro_test

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so the allocation ceilings, which rely on pooled frames
// and scratch, do not hold.
const raceEnabled = true

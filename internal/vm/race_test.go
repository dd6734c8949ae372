//go:build race

package vm

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so allocation counts that rely on pooled scratch do not
// hold.
const raceEnabled = true

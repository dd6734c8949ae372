// The poison pass: vet's frame-local fact checked against execution.
// With matrix.TestHookPoisonKept set, the last release of every matrix
// a frame keeps for its next activation overwrites the matrix's cells
// and shape, so a holder vet missed — one that reads the matrix after
// its count died — prints garbage or fails instead of the old values.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/vet"
)

// TestFramePoisonPass runs every corpus entry on the VM against the tree
// walker, at one thread and three, and every shipped program (testdata/,
// the vet goldens, examples/, bench/programs/) on the VM with vet's facts
// against the VM without them (which keeps nothing), at one thread and
// two, all with kept matrices poisoned: each pair must agree on stdout,
// the error, the cells charged and the rc count. The programs vet finds
// a determinacy race in are not run (they race on purpose). Other tests
// running alongside see the poison too, which a right fact leaves them
// blind to.
func TestFramePoisonPass(t *testing.T) {
	matrix.TestHookPoisonKept.Store(true)
	t.Cleanup(func() { matrix.TestHookPoisonKept.Store(false) })
	for _, tc := range vmCorpus {
		tc := tc
		t.Run("corpus/"+tc.name, func(t *testing.T) {
			t.Parallel()
			prog := parseCorpusEntry(t, tc.name, tc.src, tc.unchecked)
			for _, threads := range []int{1, 3} {
				opts := tc.opts
				opts.Threads = threads
				compare(t, fmt.Sprintf("%s/t=%d", tc.name, threads), runOne(t, prog, "tree", opts), runOne(t, prog, "vm", opts))
			}
		})
	}
	for _, p := range withSitePrograms(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			prog := parseAndCheck(t, p.name, p.src)
			for _, f := range vet.Check(prog.prog, prog.info) {
				if f.Code == vet.CodeRace || f.Code == vet.CodeSyncMissing {
					t.Skip("races on purpose")
				}
			}
			for _, threads := range []int{1, 2} {
				opts := interp.Options{Threads: threads, MaxSteps: -1, MaxCells: 1 << 28,
					Files: map[string]*matrix.Matrix{"ssh.data": sshCube(4, 5, 6, 7)}}
				compare(t, fmt.Sprintf("%s/t=%d", p.name, threads), runOne(t, prog, "vm-nofacts", opts), runOne(t, prog, "vm", opts))
			}
		})
	}
}

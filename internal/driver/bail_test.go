package driver

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/parser"
)

// TestBytecodeBailIsComputedOnce: when the bytecode compiler declines a
// program the run falls back to the tree walker, and the decision stays
// on the unit — the next run does not try to compile again. No checked
// program in the corpus makes the compiler bail, so the test provokes
// one: it drops an uncalled function's signature from the unit's
// checker info, which the compiler insists on and the tree walker
// never looks up.
func TestBytecodeBailIsComputedOnce(t *testing.T) {
	const src = `int unused() { return 1; } int main() { print(7); return 0; }`
	d := New()
	s, _ := d.unitFor("bail.xc", src, parser.AllExtensions())
	delete(s.res.info.Funcs, "unused")

	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		res, err := d.Run(context.Background(), RunRequest{
			Name: "bail.xc", Source: src, Exts: parser.AllExtensions(), Threads: 1, Stdout: &out})
		if err != nil || !res.OK || out.String() != "7\n" {
			t.Fatalf("run %d: err=%v res=%+v stdout=%q", i, err, res, out.String())
		}
		if res.Engine != "tree" {
			t.Fatalf("run %d: engine = %q, want the tree fallback", i, res.Engine)
		}
	}
	m := d.MetricsSnapshot()
	if m.VMCompileTotal.Load() != 1 || m.VMCacheMisses.Load() != 1 || m.VMCacheHits.Load() != 1 {
		t.Errorf("bytecode compilations %d, misses %d, hits %d, want 1/1/1", m.VMCompileTotal.Load(), m.VMCacheMisses.Load(), m.VMCacheHits.Load())
	}
	if m.VMExecTotal.Load() != 0 {
		t.Errorf("vm_exec_total = %d, want 0", m.VMExecTotal.Load())
	}
}

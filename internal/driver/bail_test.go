package driver

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/parser"
)

// BreakBytecode makes the bytecode compiler bail on the unit of (name,
// src) under every extension: it drops the signature of fn, a function
// of the program, from the unit's checker info, which the compiler
// insists on and the tree walker never looks up. No checked program in
// the corpus makes the compiler bail, so the tests provoke one.
func BreakBytecode(d *Driver, name, src, fn string) {
	s, _ := d.unitFor(name, src, parser.AllExtensions())
	delete(s.res.info.Funcs, fn)
}

// TestBytecodeBailIsComputedOnce: a bail fails the run with ErrInternal
// and the bail's text, prints nothing, and stays on the unit — the next
// run fails at once without compiling again.
func TestBytecodeBailIsComputedOnce(t *testing.T) {
	const src = `int unused() { return 1; } int main() { print(7); return 0; }`
	d := New()
	BreakBytecode(d, "bail.xc", src, "unused")

	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		_, err := d.Run(context.Background(), RunRequest{
			Name: "bail.xc", Source: src, Exts: parser.AllExtensions(), Threads: 1, Stdout: &out})
		if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), `vm: function "unused" missing from checker info`) {
			t.Fatalf("run %d: err = %v, want ErrInternal with the bail's text", i, err)
		}
		if out.Len() != 0 {
			t.Fatalf("run %d: printed %q", i, out.String())
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

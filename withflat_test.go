// Suite-level checks on the flat with-loop engine: no shipped program
// with a proven plan falls back to the closure path at run time, every
// proven chain compiles and runs as one fused loop, and a
// fold gives one answer serial, pooled, on the tree walker and on the
// VM even when its values lie beyond any stand-in identity.
package repro_test

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
	"repro/internal/vm"
)

// shippedPrograms is every program the suite-level engine checks run: the
// vet manifest's corpus (testdata/, the vet goldens, the programs
// embedded in examples/), the benchmark's programs and the error-free
// vmdiff corpus.
func shippedPrograms(t *testing.T) []corpusProgram {
	t.Helper()
	progs := withSitePrograms(t)
	for _, tc := range vmCorpus {
		if !strings.HasPrefix(tc.name, "err_") {
			progs = append(progs, corpusProgram{"corpus/" + tc.name, tc.src})
		}
	}
	return progs
}

// TestWithFlatNoRuntimeDeclines runs the shipped programs on the VM and
// requires that every execution of a flat-compiled with-loop stayed on
// the flat engine. Not parallel: the counters are process-wide.
func TestWithFlatNoRuntimeDeclines(t *testing.T) {
	progs := shippedPrograms(t)
	exts, err := driver.ParseExtensions("all")
	if err != nil {
		t.Fatal(err)
	}
	d := driver.New()
	ran := vm.WithFlatLoopsRun()
	for _, p := range progs {
		for _, threads := range []int{1, 4} {
			before := vm.WithFlatLoopsDeclined()
			var out bytes.Buffer
			res, err := d.Run(context.Background(), driver.RunRequest{
				Name: p.name, Source: p.src, Exts: exts, Threads: threads,
				MaxSteps: 50_000_000, MaxCells: 1 << 26,
				Files:  map[string]*matrix.Matrix{"ssh.data": sshCube(4, 5, 6, 7)},
				Stdout: &out, Engine: "vm",
			})
			if err != nil || res == nil || !res.OK {
				continue // a fragment that needs other inputs; the other suites own it
			}
			if got := vm.WithFlatLoopsDeclined() - before; got != 0 {
				t.Errorf("%s (threads %d): %d flat with-loop executions fell back to the closure path", p.name, threads, got)
			}
		}
	}
	if vm.WithFlatLoopsRun() == ran {
		t.Fatal("no with-loop ran flat: the check is vacuous")
	}
}

// TestWithFlatAdmissionFailsFlat: a flat-provable genarray whose
// admission fails — a box outside its shape, a negative dimension, a
// shape past the address space — raises its error on the flat engine,
// as the closure path would (the corpus entries pin that); it does not
// decline. Each program runs two flat genarrays, the second failing.
// Not parallel: the counters are process-wide.
func TestWithFlatAdmissionFailsFlat(t *testing.T) {
	for _, tc := range vmCorpus {
		switch tc.name {
		case "err_with_flat_not_superset", "err_with_flat_shape_negative", "err_with_flat_shape_overflow":
		default:
			continue
		}
		prog := parseAndCheck(t, tc.name+".xc", tc.src)
		for _, threads := range []int{1, 4} {
			declined, ran := vm.WithFlatLoopsDeclined(), vm.WithFlatLoopsRun()
			opts := tc.opts
			opts.Threads = threads
			if res := runOne(t, prog, "vm", opts); res.err != tc.errIs {
				t.Errorf("%s (threads %d): error %q, want %q", tc.name, threads, res.err, tc.errIs)
			}
			if got := vm.WithFlatLoopsDeclined() - declined; got != 0 {
				t.Errorf("%s (threads %d): %d flat with-loop executions declined", tc.name, threads, got)
			}
			if got := vm.WithFlatLoopsRun() - ran; got != 2 {
				t.Errorf("%s (threads %d): %d with-loops ran flat, want 2", tc.name, threads, got)
			}
		}
	}
}

// TestChainNoRuntimeDeclines: over the shipped programs the VM compiles
// every chain vet proves — FusedSites is vet's count, program by program
// — and an execution has nowhere to decline to: every run of a site is
// one fused loop, the same count serial and pooled, and the count the
// source says where it says one. Not parallel: the counter is
// process-wide.
func TestChainNoRuntimeDeclines(t *testing.T) {
	// Two more than its loop runs where a program scales two ranges into
	// its float vectors: `[0 :: n] * 1.0` is a chain of one stage.
	loops := map[string]int64{
		"bench/programs/chain_1m.xc":          5,
		"bench/programs/fused_chain_small.xc": 6,
		"bench/programs/eddy_score.xc":        38, // a Line a trough
		"corpus/fused_elementwise_chain":      5,
		"corpus/fused_rank2_rank3":            2,
		"corpus/fused_result_rebinds_a_leaf":  3,
		"corpus/chain_range_float":            3,
		"corpus/chain_range_line_fits":        1,
	}
	chains := 0
	for _, sp := range shippedPrograms(t) {
		var d source.Diagnostics
		prog := parser.ParseFile(sp.name, sp.src, parser.AllExtensions(), &d)
		if prog == nil {
			continue // a fragment; the other suites own it
		}
		info := sem.Check(prog, &d)
		if d.HasErrors() {
			continue
		}
		p, err := vm.CompileWithFacts(prog, info, vet.ComputeFacts(prog, info))
		if err != nil {
			t.Errorf("%s: the bytecode compiler bailed on a checked program: %v", sp.name, err)
			continue
		}
		_, proven := provenSites(prog, info)
		if p.FusedSites() != proven {
			t.Errorf("%s: %d fused sites for %d proven chains", sp.name, p.FusedSites(), proven)
		}
		if proven == 0 {
			continue
		}
		chains += proven
		var ran [2]int64
		for k, threads := range []int{1, 4} {
			before := vm.FusedLoopsRun()
			i := interp.New(prog, info, interp.Options{
				Threads: threads, Stdout: io.Discard, MaxSteps: 50_000_000, MaxCells: 1 << 26,
				Files: map[string]*matrix.Matrix{"ssh.data": sshCube(4, 5, 6, 7)},
			})
			_, err := vm.NewMachine(p, i).Run()
			i.Close()
			if err != nil {
				t.Errorf("%s (threads %d): %v", sp.name, threads, err)
			}
			ran[k] = vm.FusedLoopsRun() - before
		}
		if ran[0] != ran[1] {
			t.Errorf("%s: %d fused loops at one thread, %d at four", sp.name, ran[0], ran[1])
		}
		if want, ok := loops[sp.name]; ok && ran[0] != want {
			t.Errorf("%s: %d fused loops ran, the source executes %d", sp.name, ran[0], want)
		}
		delete(loops, sp.name)
	}
	if chains == 0 || len(loops) != 0 {
		t.Fatalf("%d chains proven, programs with a pinned count not seen: %v", chains, loops)
	}
}

// TestWithFoldBeyondStandInIdentities: min/max folds over values no
// finite stand-in identity bounds — 1.5·2^1023, +Inf, ints below
// -(1<<62) — on the flat engine (plain loads) and on the closure path
// (a call in the body), tree and VM, serial and pooled.
func TestWithFoldBeyondStandInIdentities(t *testing.T) {
	prog := parseAndCheck(t, "identities.xc", `
float same(float x) { return x; }
int samei(int x) { return x; }
int main() {
	int n = 64;
	float big = 1.5;
	for (int k = 0; k < 1023; k++) { big = big * 2.0; }
	float inf = big * 4.0;
	int low = 0 - 4611686018427387904 - 1000;
	Matrix float <1> bigs;
	bigs = with ([0] <= [i] < [n]) genarray([n], big);
	Matrix float <1> infs;
	infs = with ([0] <= [i] < [n]) genarray([n], inf);
	Matrix float <1> ninfs;
	ninfs = with ([0] <= [i] < [n]) genarray([n], 0.0 - inf);
	Matrix int <1> lows;
	lows = with ([0] <= [i] < [n]) genarray([n], low - i);
	Matrix int <1> highs;
	highs = with ([0] <= [i] < [n]) genarray([n], 0 - low + i);
	print(with ([0] <= [i] < [n]) fold(min, inf, bigs[i]));
	print(with ([0] <= [i] < [n]) fold(min, inf, infs[i]));
	print(with ([0] <= [i] < [n]) fold(max, 0.0 - inf, 0.0 - bigs[i]));
	print(with ([0] <= [i] < [n]) fold(max, 0.0 - inf, ninfs[i]));
	print(with ([0] <= [i] < [n]) fold(max, low - 5000, lows[i]));
	print(with ([0] <= [i] < [n]) fold(min, 0 - low + 5000, highs[i]));
	print(with ([0] <= [i] < [n]) fold(min, inf, same(bigs[i])));
	print(with ([0] <= [i] < [n]) fold(min, inf, same(infs[i])));
	print(with ([0] <= [i] < [n]) fold(max, 0.0 - inf, same(ninfs[i])));
	print(with ([0] <= [i] < [n]) fold(max, low - 5000, samei(lows[i])));
	print(with ([0] <= [i] < [n]) fold(min, 0 - low + 5000, samei(highs[i])));
	return 0;
}`)
	want := runOne(t, prog, "tree", interp.Options{Threads: 1})
	if want.err != "" {
		t.Fatalf("serial tree run failed: %s", want.err)
	}
	for _, run := range []struct {
		engine  string
		threads int
	}{{"tree", 4}, {"vm", 1}, {"vm", 4}} {
		got := runOne(t, prog, run.engine, interp.Options{Threads: run.threads})
		if got.out != want.out || got.err != want.err {
			t.Errorf("%s at %d threads diverged from the serial tree walker\n--- want ---\n%s--- got ---\n%s%s",
				run.engine, run.threads, want.out, got.out, got.err)
		}
	}
	if !strings.Contains(want.out, "Inf") {
		t.Errorf("expected an infinite fold result in:\n%s", want.out)
	}
}

// The C arm: every program the VM runs cleanly — the checked corpus
// entries, testdata/ and bench/programs/ — translated by cmc, compiled
// by gcc and run, prints the VM's bytes and writes its files bit for
// bit, at -par none and at -par pthread on one and two pool threads,
// the pthread build under ASan and UBSan.
// The generated C keeps the VM's value model (DESIGN §2.4), so any
// difference is a bug, not rounding.
package repro_test

import (
	"bytes"
	"context"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/eddy"
	"repro/internal/interp"
	"repro/internal/matio"
	"repro/internal/matrix"
	"repro/internal/parser"
)

// carmProgram is one C-arm program and the options its VM run takes:
// its budgets, and in Files what it reads.
type carmProgram struct {
	name, src string
	opts      interp.Options
}

// carmPrograms: the checked corpus entries with their own inputs,
// testdata/ with TestVMDifferentialTestdata's cube and bench/programs/
// with TestAllocationCeilings' 20×24×48 SSH field.
func carmPrograms(t *testing.T) []carmProgram {
	var progs []carmProgram
	for _, tc := range vmCorpus {
		if tc.unchecked == "" {
			progs = append(progs, carmProgram{tc.name, tc.src, tc.opts})
		}
	}
	bench, _ := eddy.Synthesize(eddy.SynthOptions{Lat: 20, Lon: 24, Time: 48,
		NumEddies: 5, NoiseAmp: 0.05, SwellAmp: 0.08, Seed: 1})
	for pat, ssh := range map[string]*matrix.Matrix{"testdata/*.xc": sshCube(4, 5, 6, 7), "bench/programs/*.xc": bench} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs match %s: %v", pat, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, carmProgram{path, string(src), interp.Options{MaxSteps: 50_000_000, MaxCells: 1 << 24,
				Files: map[string]*matrix.Matrix{"ssh.data": ssh}}})
		}
	}
	return progs
}

// TestCArm compiles each program at -par none, and at -par pthread
// under -fsanitize=address,undefined, and holds every run to the VM's
// run at one thread. A program whose VM run leaves rc cells live runs
// with the leak check off.
func TestCArm(t *testing.T) {
	if !haveGCC() {
		t.Skip("gcc not available")
	}
	start := time.Now()
	t.Cleanup(func() { t.Logf("C arm: %v wall", time.Since(start).Round(time.Millisecond)) })
	for _, p := range carmPrograms(t) {
		t.Run(strings.TrimSuffix(filepath.Base(p.name), ".xc"), func(t *testing.T) {
			t.Parallel()
			opts := p.opts
			opts.Threads, opts.Files = 1, maps.Clone(p.opts.Files)
			if opts.Files == nil {
				opts.Files = map[string]*matrix.Matrix{}
			}
			prog := parseAndCheck(t, filepath.Base(p.name), p.src)
			vmr := runOne(t, prog, "vm", opts)
			if vmr.err != "" || vmr.code != 0 {
				t.Skipf("the VM does not run it cleanly (exit %d): %s", vmr.code, vmr.err)
			}
			builds := []struct {
				par     cgen.ParMode
				threads []string
				flags   []string
			}{
				{cgen.ParNone, []string{"1"}, nil},
				{cgen.ParPthread, []string{"1", "2"}, []string{"-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"}},
			}
			var env []string
			if vmr.live != 0 {
				env = append(os.Environ(), "ASAN_OPTIONS=detect_leaks=0")
			}
			for _, b := range builds {
				res := driver.New().Compile(context.Background(), driver.CompileRequest{Name: p.name, Source: p.src,
					Exts: parser.AllExtensions(), Codegen: cgen.Options{Par: b.par, Optimize: true}})
				if !res.OK {
					t.Fatalf("-par %s: cmc: %q", b.par, res.Diagnostics)
				}
				bin := gccBuild(t, res.Output, b.flags...)
				for _, threads := range b.threads {
					label := "-par " + string(b.par) + " -t " + threads
					dir := t.TempDir()
					for name, m := range p.opts.Files {
						if err := matio.WriteFile(filepath.Join(dir, name), m); err != nil {
							t.Fatal(err)
						}
					}
					cmd := exec.Command(bin, "-t", threads)
					cmd.Dir, cmd.Env = dir, env
					var stderr bytes.Buffer
					cmd.Stderr = &stderr
					out, err := cmd.Output()
					if err != nil {
						t.Fatalf("%s: %v\n%s", label, err, stderr.String())
					}
					if string(out) != vmr.out {
						t.Errorf("%s: stdout differs from the VM's\n--- C ---\n%s--- VM ---\n%s", label, out, vmr.out)
					}
					for name, want := range opts.Files {
						var wb bytes.Buffer
						if err := matio.Write(&wb, want); err != nil {
							t.Fatal(err)
						}
						got, err := os.ReadFile(filepath.Join(dir, name))
						if err != nil || !bytes.Equal(got, wb.Bytes()) {
							t.Errorf("%s: %s is not the VM's bit for bit (%v)", label, name, err)
						}
					}
				}
			}
		})
	}
}

// gccBuild compiles generated C with gcc -O1 and flags, returning the
// binary's path.
func gccBuild(t *testing.T, csrc string, flags ...string) string {
	t.Helper()
	dir := t.TempDir()
	cfile, bin := filepath.Join(dir, "prog.c"), filepath.Join(dir, "prog")
	if err := os.WriteFile(cfile, []byte(csrc), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append(append([]string{"-O1", "-o", bin, cfile}, flags...), "-lpthread", "-lm")
	if out, err := exec.Command("gcc", args...).CombinedOutput(); err != nil {
		t.Fatalf("gcc: %v\n%s", err, out)
	}
	return bin
}

package interp

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/matio"
	"repro/internal/matrix"
)

// readMatrix/writeMatrix against real files (the cmd/cmrun path).
func TestFileIOThroughDirectory(t *testing.T) {
	dir := t.TempDir()
	in := matrix.FromFloats([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err := matio.WriteFile(filepath.Join(dir, "in.data"), in); err != nil {
		t.Fatal(err)
	}
	code, _ := mustRun(t, `
int main() {
	Matrix float <2> m = readMatrix("in.data");
	Matrix float <2> doubled = m .* 2.0;
	writeMatrix("out.data", doubled);
	return (int)doubled[1, 2];
}`, Options{Dir: dir})
	if code != 12 {
		t.Fatalf("exit = %d, want 12", code)
	}
	out, err := matio.ReadFile(filepath.Join(dir, "out.data"))
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.FromFloats([]float64{2, 4, 6, 8, 10, 12}, 2, 3)
	if !matrix.Equal(out, want) {
		t.Fatalf("out = %v", out)
	}
}

func TestFileIOMissingFileErrors(t *testing.T) {
	_, _, _, err := run(t, `
int main() {
	Matrix float <1> m = readMatrix("absent.data");
	return 0;
}`, Options{Dir: t.TempDir()})
	if err == nil {
		t.Fatal("missing file should be a runtime error")
	}
}

func TestFilesTakePrecedenceOverDir(t *testing.T) {
	dir := t.TempDir()
	onDisk := matrix.FromFloats([]float64{9}, 1)
	if err := matio.WriteFile(filepath.Join(dir, "x.data"), onDisk); err != nil {
		t.Fatal(err)
	}
	inMem := matrix.FromFloats([]float64{5}, 1)
	code, _ := mustRun(t, `
int main() {
	Matrix float <1> m = readMatrix("x.data");
	return (int)m[0];
}`, Options{Dir: dir, Files: map[string]*matrix.Matrix{"x.data": inMem}})
	if code != 5 {
		t.Fatalf("exit = %d; in-memory file should win", code)
	}
}

func TestReadMatrixIsolatesCallerCopy(t *testing.T) {
	// mutating a matrix read from Files must not corrupt the provided
	// input for later runs: not when the copy is cut over a pool (more
	// than eight grains of cells), nor when the allocator refuses it.
	src := `
int main() {
	Matrix float <1> m = readMatrix("x.data");
	print(with ([0] <= [i] < [dimSize(m, 0)]) fold(+, 0.0, m[i]));
	m[0] = 99.0;
	m[end] = 98.0;
	return 0;
}`
	for _, n := range []int{2, 8*matrix.ParallelGrain + 3} {
		orig := matrix.New(matrix.Float, n)
		for k := range orig.Floats() {
			orig.Floats()[k] = float64(k + 1)
		}
		for _, threads := range []int{1, 4} {
			matrix.ResetKernelStats()
			_, out := mustRun(t, src, Options{Files: map[string]*matrix.Matrix{"x.data": orig}, Threads: threads})
			if want := fmt.Sprintf("%g\n", float64(n*(n+1)/2)); out != want || orig.Floats()[0] != 1 || orig.Floats()[n-1] != float64(n) {
				t.Fatalf("%d cells, %d threads: printed %q, want %q; readMatrix must hand out a copy of the in-memory input", n, threads, out, want)
			}
			want := int64(0)
			if threads > 1 && n > 2*matrix.ParallelGrain {
				want = 1 // the copy forks, and nothing else does
			}
			if parallel, _, _ := matrix.KernelStats(); parallel != want {
				t.Errorf("%d cells, %d threads: %d constructs on the pool, want %d", n, threads, parallel, want)
			}
		}
		matrix.TestHookAllocFail = func(cells int) error {
			if cells == n {
				return errors.New("injected allocation failure")
			}
			return nil
		}
		_, _, _, err := run(t, src, Options{Files: map[string]*matrix.Matrix{"x.data": orig}, Threads: 4})
		matrix.TestHookAllocFail = nil
		if err == nil || !strings.Contains(err.Error(), "3:23") || !strings.Contains(err.Error(), "injected allocation failure") {
			t.Errorf("%d cells: a refused copy fails with %v, want the injected failure at readMatrix", n, err)
		}
		if orig.Floats()[0] != 1 || orig.Floats()[n-1] != float64(n) {
			t.Errorf("%d cells: a refused copy changed the input", n)
		}
	}
}

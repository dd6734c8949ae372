// Command-level smoke tests: build the real binaries and exercise them
// the way the README shows — translate, execute, analyze, generate
// data — against the programs in testdata/.
package repro_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	cmdBuildOnce sync.Once
	cmdBinDir    string
	cmdBuildErr  error
)

// buildCommands compiles all cmd/ binaries once per test run.
func buildCommands(t *testing.T) string {
	t.Helper()
	cmdBuildOnce.Do(func() {
		cmdBinDir, cmdBuildErr = os.MkdirTemp("", "cmbin")
		if cmdBuildErr != nil {
			return
		}
		for _, name := range []string{"cmc", "cmrun", "cmvet", "composecheck", "sshgen", "cmserved"} {
			out, err := exec.Command("go", "build", "-o",
				filepath.Join(cmdBinDir, name), "./cmd/"+name).CombinedOutput()
			if err != nil {
				cmdBuildErr = err
				cmdBuildErr = &buildError{name: name, out: string(out), err: err}
				return
			}
		}
	})
	if cmdBuildErr != nil {
		t.Fatalf("building commands: %v", cmdBuildErr)
	}
	return cmdBinDir
}

type buildError struct {
	name string
	out  string
	err  error
}

func (e *buildError) Error() string {
	return "go build ./cmd/" + e.name + ": " + e.err.Error() + "\n" + e.out
}

func TestCmdCmrunExecutesTestdata(t *testing.T) {
	bin := buildCommands(t)
	out, err := exec.Command(filepath.Join(bin, "cmrun"), "-t", "2",
		"testdata/cilk_fib.xc").CombinedOutput()
	if err != nil {
		t.Fatalf("cmrun: %v\n%s", err, out)
	}
	if strings.TrimSpace(string(out)) != "377" {
		t.Fatalf("cmrun output = %q, want 377", out)
	}
}

func TestCmdCmcEmitsCAndAst(t *testing.T) {
	bin := buildCommands(t)
	c, err := exec.Command(filepath.Join(bin, "cmc"), "-par", "none",
		"testdata/fig1_temporalmean.xc").Output()
	if err != nil {
		t.Fatalf("cmc: %v", err)
	}
	for _, want := range []string{"cm_mat", "u_main", "for (long u_k"} {
		if !strings.Contains(string(c), want) {
			t.Errorf("cmc -emit c missing %q", want)
		}
	}
	a, err := exec.Command(filepath.Join(bin, "cmc"), "-emit", "ast",
		"testdata/fig1_temporalmean.xc").Output()
	if err != nil {
		t.Fatalf("cmc -emit ast: %v", err)
	}
	if !strings.Contains(string(a), "genarray") || !strings.Contains(string(a), "(func int main") {
		t.Errorf("ast output unexpected:\n%s", a)
	}
}

func TestCmdCmcRejectsBadProgram(t *testing.T) {
	bin := buildCommands(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xc")
	if err := os.WriteFile(bad, []byte("int main() { return zzz; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "cmc"), bad).CombinedOutput()
	if err == nil {
		t.Fatal("cmc should fail on a semantic error")
	}
	if !strings.Contains(string(out), "undeclared") {
		t.Fatalf("cmc error output = %q", out)
	}
}

func TestCmdComposecheck(t *testing.T) {
	bin := buildCommands(t)
	out, err := exec.Command(filepath.Join(bin, "composecheck")).CombinedOutput()
	if err != nil {
		t.Fatalf("composecheck: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"matrix vs CMINUS             PASS",
		"tuple (standalone) vs CMINUS FAIL",
		"0 conflicts",
		"all analyses match the paper's reported results",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("composecheck missing %q:\n%s", want, s)
		}
	}
}

// TestCmdComposecheckGolden pins composecheck's §VI pass/fail table
// byte for byte, so the CLI and the compile server's /v1/analyses
// endpoint (both rendered from driver.Analyses) cannot drift apart.
func TestCmdComposecheckGolden(t *testing.T) {
	bin := buildCommands(t)
	out, err := exec.Command(filepath.Join(bin, "composecheck")).CombinedOutput()
	if err != nil {
		t.Fatalf("composecheck: %v\n%s", err, out)
	}
	golden, err := os.ReadFile("testdata/composecheck_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(golden) {
		t.Fatalf("composecheck output drifted from testdata/composecheck_golden.txt\n--- got ---\n%s\n--- want ---\n%s",
			out, golden)
	}
}

// TestCmdCmrunValidatesThreadCount: -t 0 and negative counts must not
// silently fall back to sequential execution — they select one worker
// per core and the program still runs correctly.
func TestCmdCmrunValidatesThreadCount(t *testing.T) {
	bin := buildCommands(t)
	for _, n := range []string{"0", "-4"} {
		out, err := exec.Command(filepath.Join(bin, "cmrun"), "-t", n,
			"testdata/cilk_fib.xc").CombinedOutput()
		if err != nil {
			t.Fatalf("cmrun -t %s: %v\n%s", n, err, out)
		}
		if strings.TrimSpace(string(out)) != "377" {
			t.Fatalf("cmrun -t %s output = %q, want 377", n, out)
		}
	}
}

// TestCmdCmrunTrapExitCodes pins the failure contract of the CLI:
// compile errors exit 2, runtime traps exit 3, busted resource budgets
// exit 4, and trap-coded failures print the code and source span.
func TestCmdCmrunTrapExitCodes(t *testing.T) {
	bin := buildCommands(t)
	dir := t.TempDir()
	writeProg := func(name, src string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	shapeTrap := writeProg("shape.xc", `
int main() {
	int n = 0 - 3;
	Matrix float <1> m;
	m = with ([0] <= [i] < [n]) genarray([n], 1.0);
	return 0;
}`)
	spin := writeProg("spin.xc", `
int main() {
	int i = 0;
	while (i >= 0) { i = i + 1; }
	return 0;
}`)
	alloc := writeProg("alloc.xc", `
int main() {
	Matrix float <2> m;
	m = with ([0, 0] <= [i, j] < [100, 100]) genarray([100, 100], 1.0);
	return 0;
}`)
	bad := writeProg("bad.xc", `int main() { return zzz; }`)
	openComment := writeProg("open.xc", "int main() {\n\treturn 0; /* no end\n}\n")

	cases := []struct {
		name string
		args []string
		exit int
		want string
	}{
		{"shape trap", []string{shapeTrap}, 3, "trap:shape"},
		{"step budget", []string{"-maxsteps", "10000", spin}, 4, "trap:step"},
		{"cell budget", []string{"-maxcells", "1000", alloc}, 4, "trap:oom"},
		{"compile error", []string{bad}, 2, "undeclared"},
		// A scan error: the location once, and the comment named as what is open.
		{"scan error", []string{openComment}, 2, openComment + ":2:12: error: scan error: unterminated block comment\n"},
		{"deadline", []string{"-timeout", "150ms", spin}, 1, "deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, "cmrun"), c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("cmrun succeeded, want exit %d\n%s", c.exit, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("cmrun: %v", err)
			}
			if got := ee.ExitCode(); got != c.exit {
				t.Errorf("exit = %d, want %d\n%s", got, c.exit, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output missing %q:\n%s", c.want, out)
			}
			// Trap-coded failures name the failing construct's position.
			if strings.HasPrefix(c.want, "trap:") && !strings.Contains(string(out), ".xc:") {
				t.Errorf("output carries no source span:\n%s", out)
			}
		})
	}
}

// TestCmdCmvet pins the analyzer CLI contract: clean programs exit 0,
// error findings exit 1 with the span-addressed finding on stdout, and
// -json emits the machine-readable report the editors consume. The
// same bad program still compiles with plain cmc (the mismatch is a
// runtime trap without -vet) and is rejected by cmc -vet.
func TestCmdCmvet(t *testing.T) {
	bin := buildCommands(t)
	dir := t.TempDir()
	mm := filepath.Join(dir, "mm.xc")
	if err := os.WriteFile(mm, []byte(`
int main() {
	Matrix float <2> a = init(Matrix float <2>, 3, 4);
	Matrix float <2> b = init(Matrix float <2>, 5, 6);
	Matrix float <2> c = a * b;
	print(c);
	return 0;
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Clean program: silent, exit 0.
	out, err := exec.Command(filepath.Join(bin, "cmvet"), "testdata/indexing.xc").CombinedOutput()
	if err != nil || len(out) != 0 {
		t.Fatalf("cmvet on clean program: err=%v out=%q", err, out)
	}

	// Error finding: exit 1, span-addressed text diagnostic.
	out, err = exec.Command(filepath.Join(bin, "cmvet"), mm).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("cmvet on mismatch: err=%v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "error[shape-mismatch]") ||
		!strings.Contains(string(out), "mm.xc:5:23") {
		t.Fatalf("cmvet output = %q", out)
	}

	// -json: one structured report.
	out, err = exec.Command(filepath.Join(bin, "cmvet"), "-json", mm).Output()
	if err == nil {
		t.Fatal("cmvet -json on mismatch should exit 1")
	}
	var report struct {
		OK       bool `json:"ok"`
		Errors   int  `json:"errors"`
		Findings []struct {
			Code string `json:"code"`
		} `json:"findings"`
	}
	if jerr := json.Unmarshal(out, &report); jerr != nil {
		t.Fatalf("cmvet -json output is not JSON: %v\n%s", jerr, out)
	}
	if report.OK || report.Errors != 1 || len(report.Findings) != 1 ||
		report.Findings[0].Code != "shape-mismatch" {
		t.Fatalf("cmvet -json report: %+v", report)
	}

	// Plain cmc still translates the program; cmc -vet rejects it.
	if out, err := exec.Command(filepath.Join(bin, "cmc"), "-par", "none", mm).CombinedOutput(); err != nil {
		t.Fatalf("plain cmc rejected the program: %v\n%s", err, out)
	}
	out, err = exec.Command(filepath.Join(bin, "cmc"), "-vet", "-par", "none", mm).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("cmc -vet: err=%v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "shape-mismatch") {
		t.Fatalf("cmc -vet output = %q", out)
	}
}

func TestCmdSshgenPlusCmrunPipeline(t *testing.T) {
	bin := buildCommands(t)
	dir := t.TempDir()
	// generate synthetic SSH, then run the Fig 1 program against it
	out, err := exec.Command(filepath.Join(bin, "sshgen"), "-q",
		"-lat", "6", "-lon", "7", "-time", "8",
		"-o", filepath.Join(dir, "ssh.data")).CombinedOutput()
	if err != nil {
		t.Fatalf("sshgen: %v\n%s", err, out)
	}
	src, err := os.ReadFile("testdata/fig1_temporalmean.xc")
	if err != nil {
		t.Fatal(err)
	}
	prog := filepath.Join(dir, "mean.xc")
	if err := os.WriteFile(prog, src, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(bin, "cmrun"), "-t", "3", prog).CombinedOutput()
	if err != nil {
		t.Fatalf("cmrun pipeline: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "means.data")); err != nil {
		t.Fatal("means.data was not written")
	}
}

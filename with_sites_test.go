// The with-loop decline golden: every with-loop site and every chain root
// vet tries in the shipped programs (testdata/, the vet goldens,
// examples/ and bench/programs/), with the flat plan vet proves for it
// or the rule it breaks. A change to the plan language or to the chain
// rules shows here as the sites it flips.
// Regenerate with:
//
//	go test -run TestWithSitesGolden -update-with-sites
package repro_test

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
	"repro/internal/vm"
)

var updateWithSites = flag.Bool("update-with-sites", false, "rewrite testdata/with_sites.txt")

const withSitesPath = "testdata/with_sites.txt"

// withSitePrograms is what TestWithSitesGolden reads: the vet
// manifest's corpus and the benchmark's programs.
func withSitePrograms(t *testing.T) []corpusProgram {
	t.Helper()
	progs := corpus(t)
	paths, err := filepath.Glob("bench/programs/*.xc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, corpusProgram{filepath.ToSlash(path), string(src)})
	}
	return progs
}

func TestWithSitesGolden(t *testing.T) {
	progs := withSitePrograms(t)
	var b strings.Builder
	b.WriteString("# With-loop sites and chain roots: flat (a chain fused), or the rule it breaks. Regenerate: go test -run TestWithSitesGolden -update-with-sites\n")
	var flat, declined, fused, unfused int
	for _, p := range progs {
		var d source.Diagnostics
		prog := parser.ParseFile(p.name, p.src, parser.AllExtensions(), &d)
		if prog == nil {
			continue
		}
		info := sem.Check(prog, &d)
		if d.HasErrors() {
			continue
		}
		sites := vet.WithSites(prog, info)
		slices.SortStableFunc(sites, func(x, y vet.WithSite) int {
			a, c := x.At.Span().Start, y.At.Span().Start
			if a.Line != c.Line {
				return a.Line - c.Line
			}
			return a.Col - c.Col
		})
		for _, s := range sites {
			_, loop := s.At.(*ast.WithLoop)
			fmt.Fprintf(&b, "%s:%s ", p.name, s.At.Span().Start)
			switch {
			case loop && s.Plan != nil:
				b.WriteString("flat\n")
				flat++
			case s.Plan != nil:
				b.WriteString("chain fused\n")
				fused++
			case loop:
				fmt.Fprintf(&b, "declined: %s at %s\n", s.Decline.Rule, s.Decline.Span.Start)
				declined++
			default:
				fmt.Fprintf(&b, "chain declined: %s at %s\n", s.Decline.Rule, s.Decline.Span.Start)
				unfused++
			}
		}
	}
	fmt.Fprintf(&b, "# %d flat, %d declined\n", flat, declined)
	fmt.Fprintf(&b, "# %d chains fused, %d declined\n", fused, unfused)
	got := b.String()
	if *updateWithSites {
		if err := os.WriteFile(withSitesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(withSitesPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-with-sites): %v", err)
	}
	if got != string(want) {
		t.Errorf("with-loop sites drifted from %s.\nIf the change is intended, regenerate with -update-with-sites.\n--- got ---\n%s--- want ---\n%s", withSitesPath, got, want)
	}
}

// provenSites counts the with-loops and the chains vet proves flat, from
// its list of sites.
func provenSites(prog *ast.Program, info *sem.Info) (withs, chains int) {
	for _, s := range vet.WithSites(prog, info) {
		if s.Plan == nil {
			continue
		}
		if _, loop := s.At.(*ast.WithLoop); loop {
			withs++
		} else {
			chains++
		}
	}
	return withs, chains
}

// TestWithSitesAreTheVMs: vet alone decides which with-loops run flat.
// Over every program TestWithSitesGolden reads and every corpus entry
// that checks, the VM compiles flat exactly the sites vet proves and
// fuses exactly the chains it proves; and the shipped programs that need
// no input file, run at one and two threads, never send a flat site back
// to the closure path. The programs vet finds a determinacy race in are
// not run: they race on purpose, and -race would report it. Not
// parallel: the counters are process-wide.
func TestWithSitesAreTheVMs(t *testing.T) {
	progs := withSitePrograms(t)
	for _, tc := range vmCorpus {
		progs = append(progs, corpusProgram{"corpus/" + tc.name, tc.src})
	}
	racy := map[string]bool{}
	for _, p := range progs {
		var d source.Diagnostics
		prog := parser.ParseFile(p.name, p.src, parser.AllExtensions(), &d)
		if prog == nil {
			continue
		}
		info := sem.Check(prog, &d)
		if d.HasErrors() {
			continue
		}
		for _, f := range vet.Check(prog, info) {
			racy[p.name] = racy[p.name] || f.Code == vet.CodeRace || f.Code == vet.CodeSyncMissing
		}
		flat, fused := provenSites(prog, info)
		vp, err := vm.CompileWithFacts(prog, info, vet.ComputeFacts(prog, info))
		if err != nil {
			t.Errorf("%s: the bytecode compiler bailed on a checked program: %v", p.name, err)
			continue
		}
		if vp.WithCompiled() != flat {
			t.Errorf("%s: vet proves %d with-loops flat, the VM compiles %d", p.name, flat, vp.WithCompiled())
		}
		if vp.FusedSites() != fused {
			t.Errorf("%s: vet proves %d chains, the VM fuses %d", p.name, fused, vp.FusedSites())
		}
	}
	exts, err := driver.ParseExtensions("all")
	if err != nil {
		t.Fatal(err)
	}
	d := driver.New()
	for _, p := range shippedPrograms(t) {
		if strings.Contains(p.src, "readMatrix") || racy[p.name] {
			continue
		}
		for _, threads := range []int{1, 2} {
			before := vm.WithFlatLoopsDeclined()
			res, err := d.Run(context.Background(), driver.RunRequest{
				Name: p.name, Source: p.src, Exts: exts, Threads: threads,
				MaxSteps: 50_000_000, MaxCells: 1 << 26, Stdout: io.Discard, Engine: "vm",
			})
			if err != nil || res == nil || !res.OK {
				continue // a fragment or a program that fails on purpose; the other suites own it
			}
			if got := vm.WithFlatLoopsDeclined() - before; got != 0 {
				t.Errorf("%s (threads %d): %d flat with-loop executions fell back to the closure path", p.name, threads, got)
			}
		}
	}
}

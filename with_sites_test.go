// The with-loop decline golden: every with-loop site of the shipped
// programs (testdata/, the vet goldens, examples/ and bench/programs/),
// with the flat plan vet proves for it or the rule its body breaks. A
// change to the plan language shows here as the sites it flips.
// Regenerate with:
//
//	go test -run TestWithSitesGolden -update-with-sites
package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
)

var updateWithSites = flag.Bool("update-with-sites", false, "rewrite testdata/with_sites.txt")

const withSitesPath = "testdata/with_sites.txt"

func TestWithSitesGolden(t *testing.T) {
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
	var b strings.Builder
	b.WriteString("# With-loop sites: flat, or the rule the body breaks. Regenerate: go test -run TestWithSitesGolden -update-with-sites\n")
	flat, declined := 0, 0
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
		slices.SortFunc(sites, func(x, y vet.WithSite) int {
			a, c := x.Loop.Span().Start, y.Loop.Span().Start
			if a.Line != c.Line {
				return a.Line - c.Line
			}
			return a.Col - c.Col
		})
		for _, s := range sites {
			fmt.Fprintf(&b, "%s:%s ", p.name, s.Loop.Span().Start)
			if s.Plan != nil {
				b.WriteString("flat\n")
				flat++
				continue
			}
			fmt.Fprintf(&b, "declined: %s at %s\n", s.Decline.Rule, s.Decline.Span.Start)
			declined++
		}
	}
	fmt.Fprintf(&b, "# %d flat, %d declined\n", flat, declined)
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

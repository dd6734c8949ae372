// The frame-local golden: every allocation site vet proves frame-local
// or return-local, and every call it proves a destination, in the
// shipped programs (testdata/, the vet goldens, examples/ and
// bench/programs/) — the site and the local its matrix is bound to. A
// site missing here makes a fresh matrix every time it runs; a site
// added here is one whose storage the VM's frame keeps, or its caller's
// when it is return-local and called at a destination.
// Regenerate with:
//
//	go test -run TestFrameLocalsGolden -update-frame-locals
package repro_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/vet"
)

var updateFrameLocals = flag.Bool("update-frame-locals", false, "rewrite testdata/frame_locals.txt")

const frameLocalsPath = "testdata/frame_locals.txt"

func TestFrameLocalsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Frame-local allocation sites: the site, then the local it binds; return-local sites and destination calls say so. Regenerate: go test -run TestFrameLocalsGolden -update-frame-locals\n")
	n := map[vet.LocalKind]int{}
	for _, p := range withSitePrograms(t) {
		var d source.Diagnostics
		prog := parser.ParseFile(p.name, p.src, parser.AllExtensions(), &d)
		if prog == nil {
			continue
		}
		info := sem.Check(prog, &d)
		if d.HasErrors() {
			continue
		}
		for _, s := range vet.FrameLocals(prog, info) {
			line := fmt.Sprintf("%s:%s", p.name, s.At.Span().Start)
			if s.Kind != vet.InFrame {
				line += " " + s.Kind.String()
			}
			if s.Name != "" {
				line += " " + s.Name
			}
			fmt.Fprintln(&b, line)
			n[s.Kind]++
		}
	}
	fmt.Fprintf(&b, "# %d frame-local sites, %d return-local sites, %d destinations\n", n[vet.InFrame], n[vet.ReturnLocal], n[vet.Destination])
	got := b.String()
	if *updateFrameLocals {
		if err := os.WriteFile(frameLocalsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(frameLocalsPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-frame-locals): %v", err)
	}
	if got != string(want) {
		t.Errorf("frame-local sites drifted from %s.\nIf the change is intended, regenerate with -update-frame-locals.\n--- got ---\n%s--- want ---\n%s", frameLocalsPath, got, want)
	}
}

// The generated scanner (one union DFA per composed grammar, PR 13)
// against the per-terminal NFA scanner it replaced, kept as the
// test-only reference in internal/lexer/refscan: over every shipped
// program — testdata/, the vet goldens, the sources embedded in
// examples/ (the vet manifest's corpus) — and the dual-engine corpus,
// both must deliver the same (terminal, text, span) stream and fail at
// the same place, driven by the parser's real per-state valid sets and
// context-free. FuzzScanDiff in internal/parser holds the same
// property over arbitrary bytes.
package repro_test

import (
	"testing"

	"repro/internal/lexer/refscan"
	"repro/internal/parser"
	"repro/internal/source"
)

func TestScannerMatchesReference(t *testing.T) {
	progs := corpus(t)
	for _, tc := range vmCorpus {
		progs = append(progs, corpusProgram{name: "vmdiff/" + tc.name, src: tc.src})
	}
	scanned := 0
	for _, o := range []parser.Options{parser.AllExtensions(), {}} {
		tab, err := parser.BuildTable(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			file := source.NewFile(p.name, p.src)
			var diags source.Diagnostics
			both := refscan.NewBoth(tab, file)
			_, ok := tab.Parse(both, &diags)
			if both.Mismatch != "" {
				t.Errorf("%s, extensions %+v, parser-driven: %s", p.name, o, both.Mismatch)
			}
			if o == parser.AllExtensions() && !ok {
				t.Errorf("%s does not parse: %s", p.name, diags.String())
			}
			scanned += both.Gen.Pos()
			both = refscan.NewBoth(tab, file)
			both.ScanAll()
			if both.Mismatch != "" {
				t.Errorf("%s, extensions %+v, context-free: %s", p.name, o, both.Mismatch)
			}
		}
	}
	if len(progs) < 60 || scanned == 0 {
		t.Errorf("compared %d programs, %d bytes scanned; expected testdata + goldens + examples + vmdiff corpus", len(progs), scanned)
	}
}

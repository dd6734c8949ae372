// Native Go fuzz targets for the frontend. The contract under test is
// the service's first line of defense: for ARBITRARY input the scanner
// and parser return diagnostics — they never panic, hang, or return
// the (nil program, no error) combination that would let garbage flow
// into later stages. Seeds come from the real programs in testdata/
// and examples/ plus a handful of adversarial fragments aimed at the
// scanner's maximal-munch loop and the parser's error recovery.
//
// CI runs a short coverage-guided pass per target
// (go test -fuzz=FuzzLex -fuzztime=10s, same for FuzzScanDiff and
// FuzzParse); the checked-in seeds always run as part of the normal
// test suite.
package parser_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lexer"
	"repro/internal/lexer/refscan"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// addSeeds feeds every file under testdata/ and examples/ to the
// corpus: the .xc programs exercise the happy paths, and the Go hosts
// of the embedded examples are realistic almost-but-not-CMINUS input.
func addSeeds(f *testing.F) {
	f.Helper()
	for _, dir := range []string{"../../testdata", "../../examples"} {
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if raw, err := os.ReadFile(path); err == nil {
				f.Add(string(raw))
			}
			return nil
		})
	}
	for _, s := range []string{
		"",
		"int main() { return 0; }",
		"int main() { Matrix float <2> m; m = with ([0,0] <= [i,j] < [4,4]) genarray([4,4], 1.0); return 0; }",
		"with with with",
		"/* unterminated",
		"\"unterminated string",
		"int main() { return 0 0; }",
		"int main() { transform { split i by 4, a, b; } for (i = 0; i < 4; i = i + 1) ; }",
		"spawn sync spawn",
		"(|1, 2|)",
		"\x00\xff\xfe",
		"int x = 1e999999;",
		"Matrix Matrix Matrix",
	} {
		f.Add(s)
	}
}

// FuzzLex drives the context-free scan (every terminal valid, the
// scanner's worst case) over arbitrary bytes: any outcome is fine
// except a panic or a scan that neither advances nor errors.
func FuzzLex(f *testing.F) {
	addSeeds(f)
	tab, err := parser.BuildTable(parser.AllExtensions())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexer.New(tab, source.NewFile("fuzz.xc", src)).ScanAll()
		if err == nil {
			// A clean scan must have consumed real text: token spans are
			// within bounds and non-empty.
			for _, tok := range toks {
				if tok.Text == "" {
					t.Fatalf("empty token %q scanned from %q", tok.Terminal, src)
				}
			}
		}
	})
}

// FuzzScanDiff holds the generated scanner to the reference (the
// per-terminal NFA scanner it replaced) on arbitrary bytes: the same
// tokens and the same error position, under the valid sets the parser
// really asks with — up to wherever the parse gives up — and
// context-free over the whole input.
func FuzzScanDiff(f *testing.F) {
	addSeeds(f)
	tab, err := parser.BuildTable(parser.AllExtensions())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file := source.NewFile("fuzz.xc", src)
		var diags source.Diagnostics
		both := refscan.NewBoth(tab, file)
		tab.Parse(both, &diags)
		if both.Mismatch != "" {
			t.Fatalf("parser-driven scan of %q: %s", src, both.Mismatch)
		}
		both = refscan.NewBoth(tab, file)
		both.ScanAll()
		if both.Mismatch != "" {
			t.Fatalf("context-free scan of %q: %s", src, both.Mismatch)
		}
	})
}

// FuzzParse drives the full frontend (parse + semantic check): for any
// input it must either produce a program or report diagnostics, and
// must never panic.
func FuzzParse(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		var diags source.Diagnostics
		prog := parser.ParseFile("fuzz.xc", src, parser.AllExtensions(), &diags)
		if prog == nil {
			if !diags.HasErrors() {
				t.Fatalf("parse of %q failed without diagnostics", src)
			}
			return
		}
		// The checker must also hold the no-panic contract on whatever
		// tree error recovery produced.
		sem.Check(prog, &diags)
	})
}

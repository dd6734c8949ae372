// The paper's §VI modular analyses (MDA / MWDA) as a memoized,
// structured report. cmd/composecheck renders it as the pass/fail
// table; the compile server serves it as JSON on /v1/analyses. Both go
// through Analyses(), so the CLI table and the endpoint cannot drift
// apart — and a long-lived service pays the analysis cost once per
// process, not per request.
package driver

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/attr"
	"repro/internal/grammar"
	"repro/internal/parser"
	"repro/internal/sem"
)

// AnalysisRow is one extension's verdict under a modular analysis.
type AnalysisRow struct {
	Name string `json:"name"`
	// Kind is "mda" (modular determinism analysis, §VI-A) or "mwda"
	// (modular well-definedness analysis, §VI-B).
	Kind   string `json:"kind"`
	Passed bool   `json:"passed"`
	// Expected is the paper's reported outcome; Passed != Expected
	// marks a reproduction regression.
	Expected bool     `json:"expected"`
	Markers  []string `json:"markers,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// AnalysisReport is the full §VI results table plus the composition
// theorem checks.
type AnalysisReport struct {
	MDA  []AnalysisRow `json:"mda"`
	MWDA []AnalysisRow `json:"mwda"`

	// CompositionOK reports that host + all passing extensions builds
	// a conflict-free LALR(1) table with CompositionStates states; its
	// generated scanner has ScannerStates DFA states for the token
	// terminals and SkipStates for whitespace and comments.
	CompositionOK     bool   `json:"composition_ok"`
	CompositionStates int    `json:"composition_states,omitempty"`
	ScannerStates     int    `json:"scanner_states,omitempty"`
	SkipStates        int    `json:"skip_states,omitempty"`
	CompositionErr    string `json:"composition_err,omitempty"`

	// SemCompositionOK reports that the composed attribute grammar is
	// complete (every attribute has a defining equation).
	SemCompositionOK  bool   `json:"sem_composition_ok"`
	SemCompositionErr string `json:"sem_composition_err,omitempty"`

	// Unexpected counts results that differ from the paper's.
	Unexpected int `json:"unexpected"`
}

var (
	analysesOnce sync.Once
	analysesRep  *AnalysisReport
)

// Analyses runs the modular analyses on the real language
// specifications once per process and returns the memoized report.
func Analyses() *AnalysisReport {
	analysesOnce.Do(func() { analysesRep = runAnalyses() })
	return analysesRep
}

func runAnalyses() *AnalysisReport {
	rep := &AnalysisReport{}
	mda := func(name string, r grammar.ComposeReport, expectPass bool) {
		row := AnalysisRow{Name: name, Kind: "mda", Passed: r.Passed, Expected: expectPass,
			Markers: r.Markers, Failures: r.Failures}
		if row.Passed != row.Expected {
			rep.Unexpected++
		}
		rep.MDA = append(rep.MDA, row)
	}

	mda("matrix vs CMINUS",
		grammar.IsComposable(parser.StartSymbol, parser.HostSpec(), parser.MatrixSpec()), true)
	mda("refcount vs CMINUS",
		grammar.IsComposable(parser.StartSymbol, parser.HostSpec(), parser.RcSpec()), true)
	mda("transform vs CMINUS+matrix",
		grammar.IsComposable(parser.StartSymbol, mergedHostMatrix(), parser.TransformSpec()), true)
	mda("cilk vs CMINUS",
		grammar.IsComposable(parser.StartSymbol, parser.HostSpec(), parser.CilkSpec()), true)
	mda("tuple (standalone) vs CMINUS",
		grammar.IsComposable(parser.StartSymbol, parser.HostSpecCore(), parser.TupleSpec()), false)
	mda("tuple with (| |) markers",
		grammar.IsComposable(parser.StartSymbol, parser.HostSpecCore(), parser.TupleFixedSpec()), true)

	tab, err := parser.BuildTable(parser.AllExtensions())
	if err != nil {
		rep.CompositionErr = err.Error()
		rep.Unexpected++
	} else {
		rep.CompositionOK = true
		rep.CompositionStates = tab.NumStates()
		rep.ScannerStates = tab.Scanner().Tokens.NumStates()
		rep.SkipStates = tab.Scanner().Skips.NumStates()
	}

	mwda := func(name string, r attr.MWDAReport) {
		row := AnalysisRow{Name: name, Kind: "mwda", Passed: r.Passed, Expected: true,
			Failures: r.Failures}
		if !row.Passed {
			rep.Unexpected++
		}
		rep.MWDA = append(rep.MWDA, row)
	}
	mwda("matrix semantics vs host", attr.CheckWellDefined(sem.HostAG(nil), sem.MatrixAG()))
	mwda("transform semantics vs host+matrix", attr.CheckWellDefined(mergedSemHost(), sem.TransformAG()))
	mwda("cilk semantics vs host", attr.CheckWellDefined(sem.HostAG(nil), sem.CilkAG()))

	g, err := sem.Grammar()
	if err != nil {
		rep.SemCompositionErr = fmt.Sprintf("semantic composition FAILED: %v", err)
		rep.Unexpected++
	} else if missing := g.CheckComplete(); len(missing) > 0 {
		rep.SemCompositionErr = fmt.Sprintf("composed attribute grammar incomplete: %d missing equations", len(missing))
		rep.Unexpected++
	} else {
		rep.SemCompositionOK = true
	}
	return rep
}

// Render writes the report as cmd/composecheck's §VI pass/fail table
// (the format the golden test pins down).
func (rep *AnalysisReport) Render(w io.Writer) {
	fmt.Fprintln(w, "== Modular determinism analysis (Copper, §VI-A) ==")
	for _, row := range rep.MDA {
		status := "PASS"
		if !row.Passed {
			status = "FAIL"
		}
		note := ""
		if row.Passed != row.Expected {
			note = "  << UNEXPECTED"
		}
		fmt.Fprintf(w, "  %-28s %s%s\n", row.Name, status, note)
		if len(row.Markers) > 0 {
			fmt.Fprintf(w, "      markers: %v\n", row.Markers)
		}
		for _, f := range row.Failures {
			fmt.Fprintf(w, "      %s\n", f)
		}
	}

	fmt.Fprintln(w, "\n  (the standalone tuple extension fails on its host \"(\" initial")
	fmt.Fprintln(w, "   terminal, exactly as §VI-A reports; it is therefore packaged")
	fmt.Fprintln(w, "   with the host language in this translator)")

	fmt.Fprintln(w, "\n== Composition theorem check ==")
	if !rep.CompositionOK {
		fmt.Fprintf(w, "  composed grammar FAILED: %s\n", rep.CompositionErr)
	} else {
		fmt.Fprintf(w, "  host + matrix + transform + refcount + cilk: LALR(1), %d states, 0 conflicts\n",
			rep.CompositionStates)
		fmt.Fprintf(w, "  its context-aware scanner: one DFA of %d states for the tokens, one of %d for whitespace and comments\n",
			rep.ScannerStates, rep.SkipStates)
	}

	fmt.Fprintln(w, "\n== Modular well-definedness analysis (Silver, §VI-B) ==")
	for _, row := range rep.MWDA {
		status := "PASS"
		if !row.Passed {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %-38s %s\n", row.Name, status)
		for _, f := range row.Failures {
			fmt.Fprintf(w, "      %s\n", f)
		}
	}
	if !rep.SemCompositionOK {
		fmt.Fprintf(w, "  %s\n", rep.SemCompositionErr)
	} else {
		fmt.Fprintln(w, "  composed attribute grammar: complete (every attribute has a defining equation)")
	}

	if rep.Unexpected > 0 {
		fmt.Fprintf(w, "\n%d unexpected result(s)\n", rep.Unexpected)
	} else {
		fmt.Fprintln(w, "\nall analyses match the paper's reported results")
	}
}

// mergedHostMatrix treats CMINUS ∪ matrix as the host for analyzing
// the transform extension, which extends the matrix extension.
func mergedHostMatrix() *grammar.Spec {
	h := parser.HostSpec()
	m := parser.MatrixSpec()
	for _, t := range m.Terminals {
		t.Owner = grammar.HostOwner
	}
	for _, p := range m.Productions {
		p.Owner = grammar.HostOwner
	}
	h.Terminals = append(h.Terminals, m.Terminals...)
	h.Nonterminals = append(h.Nonterminals, m.Nonterminals...)
	h.Productions = append(h.Productions, m.Productions...)
	return h
}

// mergedSemHost merges the matrix attribute grammar into the host's for
// analyzing the transform semantics against host+matrix.
func mergedSemHost() *attr.AGSpec {
	h := sem.HostAG(nil)
	m := sem.MatrixAG()
	h.NTs = append(h.NTs, m.NTs...)
	h.Attrs = append(h.Attrs, m.Attrs...)
	h.Occurs = append(h.Occurs, m.Occurs...)
	for i := range m.Prods {
		m.Prods[i].Owner = ""
	}
	h.Prods = append(h.Prods, m.Prods...)
	h.SynEqs = append(h.SynEqs, m.SynEqs...)
	h.InhEqs = append(h.InhEqs, m.InhEqs...)
	return h
}

// The vet stage: cmvet static analysis between check and emit. The
// findings are a product of the program unit — repeated requests for
// identical (name, source, extension set) return the memoized findings
// without re-analyzing, and concurrent identical requests wait for the
// one analysis under way.
package driver

import (
	"time"

	"repro/internal/parser"
	"repro/internal/source"
	"repro/internal/vet"
)

// VetRequest describes one static-analysis request.
type VetRequest struct {
	Name   string
	Source string
	Exts   parser.Options
}

// VetResult is the outcome of a Vet. OK is false when the frontend
// rejected the program (Diagnostics holds its errors) or when vet
// produced error-severity findings.
type VetResult struct {
	// Key is the content address of the analyzed program unit.
	Key string
	// Cached reports the findings were already on the unit (or an
	// identical in-flight analysis produced them).
	Cached      bool
	OK          bool
	Diagnostics []string
	Findings    []source.Diagnostic
	// Errors counts error-severity findings.
	Errors int
	Stages StageTimings
}

// vetEntry is a vet outcome. Findings are immutable after Check and
// are shared by concurrent consumers.
type vetEntry struct {
	ok       bool
	findings []source.Diagnostic
	errors   int
	stages   StageTimings
}

// findingBytes is the retained-size contribution of a findings list.
func findingBytes(findings []source.Diagnostic) int64 {
	var n int64
	for _, f := range findings {
		n += int64(len(f.Message) + len(f.Code) + 64)
	}
	return n
}

// Vet parses and checks req.Source through the unit cache, then runs
// the cmvet analyses over the checked AST — once per unit; repeated
// identical requests share the findings.
func (d *Driver) Vet(req VetRequest) *VetResult {
	t0 := time.Now()
	d.metrics.VetRuns.Add(1)
	defer func() { d.metrics.VetLatency.Observe(time.Since(t0)) }()

	s, _ := d.unitFor(req.Name, req.Source, req.Exts)
	u := s.res
	e, how := u.vet.get(func() vetEntry {
		e := vetEntry{stages: u.stages}
		if u.prog != nil {
			t1 := time.Now()
			e.findings = vet.Check(u.prog, u.info)
			vetD := time.Since(t1)
			d.metrics.VetAnalysisLatency.Observe(vetD)
			e.stages.VetNS = int64(vetD)
		}
		e.errors = vet.ErrorCount(e.findings)
		e.ok = u.ok && e.errors == 0
		d.metrics.VetFindings.Add(int64(len(e.findings)))
		for _, f := range e.findings {
			if f.Code == vet.CodeRace {
				d.metrics.VetRacesFound.Add(1)
			}
		}
		return e
	})
	tally{&d.metrics.VetHits, &d.metrics.VetCoalesced, &d.metrics.VetMisses}.count(how)
	if how == miss {
		d.units.grow(s, findingBytes(e.findings))
	}
	return &VetResult{
		Key: s.key, Cached: how != miss,
		OK: e.ok, Diagnostics: u.diags, Findings: e.findings,
		Errors: e.errors, Stages: e.stages,
	}
}

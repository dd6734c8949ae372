// The modular well-definedness analysis (MWDA) of §VI-B, after
// Kaminski & Van Wyk (SLE 2012). Run by an extension developer on
// their extension against the host grammar alone, it guarantees that
// any composition of passing extensions yields a complete attribute
// grammar — every attribute demanded anywhere has a defining equation
// (possibly via forwarding).
//
// The rules checked here, per extension E over host H:
//
//  1. Equation ownership: E may define an equation (p, a) only if E
//     owns p or E owns a. (Otherwise two extensions could both define
//     host equations and collide.)
//  2. New-production completeness: every production E adds with an LHS
//     nonterminal it does not own must either forward, or provide
//     equations for ALL synthesized attributes known to occur on that
//     LHS in H ∪ E. Forwarding is what makes the production's
//     semantics available for attributes E cannot see (those added by
//     other extensions).
//  3. New-attribute completeness: for every synthesized attribute a
//     that E declares occurring on a nonterminal X that E does not
//     own, E must provide equations for a on ALL of H's productions
//     of X (other extensions' productions forward, so a is computable
//     there).
//  4. Inherited completeness: for every production p visible to E that
//     E owns, and every child slot of p, equations must exist for all
//     inherited attributes occurring on the child's nonterminal in
//     H ∪ E. For host productions, E must supply inherited equations
//     for any inherited attributes E itself declares on host child
//     nonterminals (rule 3's inherited dual) — or declare none.
//  5. Forward ownership: E may only declare forwards on its own
//     productions, and a forwarded production must still satisfy rule
//     1 for any explicit equations it has.
package attr

import (
	"fmt"
	"sort"
	"strings"
)

// MWDAReport is the outcome of the analysis for one extension.
type MWDAReport struct {
	Extension string
	Passed    bool
	Failures  []string
}

func (r MWDAReport) String() string {
	status := "PASS"
	if !r.Passed {
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "extension %q MWDA: %s", r.Extension, status)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  fail: %s", f)
	}
	return b.String()
}

// CheckWellDefined runs the MWDA for ext against host.
func CheckWellDefined(host *AGSpec, ext *AGSpec) MWDAReport {
	r := MWDAReport{Extension: ext.Name}
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}

	// Index the combined view H ∪ E.
	ntOwner := map[string]string{}
	for _, n := range host.NTs {
		ntOwner[n.Name] = host.Name
	}
	for _, n := range ext.NTs {
		ntOwner[n.Name] = ext.Name
	}
	attrOwner := map[string]string{}
	attrKind := map[string]AttrKind{}
	for _, s := range []*AGSpec{host, ext} {
		for _, a := range s.Attrs {
			attrOwner[a.Name] = s.Name
			attrKind[a.Name] = a.Kind
		}
	}
	prodOwner := map[string]string{}
	prodOf := map[string]ProdDecl{}
	prodsByLHS := map[string][]ProdDecl{}
	for _, s := range []*AGSpec{host, ext} {
		for _, p := range s.Prods {
			prodOwner[p.Name] = s.Name
			prodOf[p.Name] = p
			prodsByLHS[p.LHS] = append(prodsByLHS[p.LHS], p)
		}
	}
	occurs := map[[2]string]bool{}
	occursOwner := map[[2]string]string{}
	for _, s := range []*AGSpec{host, ext} {
		for _, o := range s.Occurs {
			occurs[[2]string{o.Attr, o.NT}] = true
			occursOwner[[2]string{o.Attr, o.NT}] = s.Name
		}
	}
	synEq := map[[2]string]string{} // (prod, attr) -> owner
	for _, s := range []*AGSpec{host, ext} {
		for _, e := range s.SynEqs {
			synEq[[2]string{e.Prod, e.Attr}] = s.Name
		}
	}
	inhEq := map[inhKey]string{}
	for _, s := range []*AGSpec{host, ext} {
		for _, e := range s.InhEqs {
			inhEq[inhKey{e.Prod, e.Child, e.Attr}] = s.Name
		}
	}
	fwd := map[string]string{}
	for _, s := range []*AGSpec{host, ext} {
		for _, f := range s.Forwards {
			fwd[f.Prod] = s.Name
		}
	}

	// Rule 1: equation ownership.
	for _, e := range ext.SynEqs {
		po, known := prodOwner[e.Prod]
		if !known {
			fail("equation %s.%s references a production not visible to %s", e.Prod, e.Attr, ext.Name)
			continue
		}
		ao := attrOwner[e.Attr]
		if po != ext.Name && ao != ext.Name {
			fail("equation %s.%s: %s owns neither the production (%s) nor the attribute (%s)",
				e.Prod, e.Attr, ext.Name, orHost(po), orHost(ao))
		}
	}
	for _, e := range ext.InhEqs {
		po := prodOwner[e.Prod]
		ao := attrOwner[e.Attr]
		if po != ext.Name && ao != ext.Name {
			fail("inherited equation %s[%d].%s: %s owns neither production nor attribute",
				e.Prod, e.Child, e.Attr, ext.Name)
		}
	}

	// Rule 5: forward ownership.
	for _, f := range ext.Forwards {
		if prodOwner[f.Prod] != ext.Name {
			fail("forward on %s, a production %s does not own", f.Prod, ext.Name)
		}
	}

	// Rule 2: new-production completeness.
	for _, p := range ext.Prods {
		if ntOwner[p.LHS] == ext.Name {
			continue // extension's own nonterminal: checked like a host NT below
		}
		if _, hasFwd := fwd[p.Name]; hasFwd {
			continue
		}
		for occ := range occurs {
			if occ[1] != p.LHS || attrKind[occ[0]] != Synthesized {
				continue
			}
			if _, ok := synEq[[2]string{p.Name, occ[0]}]; !ok {
				fail("production %s (on %s nonterminal %s) has no equation for synthesized %q and does not forward",
					p.Name, orHost(ntOwner[p.LHS]), p.LHS, occ[0])
			}
		}
	}
	// Extension-owned nonterminals: ordinary completeness within E.
	for _, p := range ext.Prods {
		if ntOwner[p.LHS] != ext.Name {
			continue
		}
		if _, hasFwd := fwd[p.Name]; hasFwd {
			continue
		}
		for occ := range occurs {
			if occ[1] != p.LHS || attrKind[occ[0]] != Synthesized {
				continue
			}
			if _, ok := synEq[[2]string{p.Name, occ[0]}]; !ok {
				fail("production %s has no equation for synthesized %q on its own nonterminal %s",
					p.Name, occ[0], p.LHS)
			}
		}
	}

	// Rule 3: new synthesized attributes occurring on host nonterminals.
	for _, o := range ext.Occurs {
		if attrOwner[o.Attr] != ext.Name || attrKind[o.Attr] != Synthesized {
			continue
		}
		if ntOwner[o.NT] == ext.Name {
			continue
		}
		for _, p := range prodsByLHS[o.NT] {
			if prodOwner[p.Name] != host.Name {
				continue // extension's own productions were checked by rule 2
			}
			if _, ok := synEq[[2]string{p.Name, o.Attr}]; ok {
				continue
			}
			if _, hasFwd := fwd[p.Name]; hasFwd {
				continue
			}
			fail("attribute %q occurs on host nonterminal %s but host production %s has no equation for it",
				o.Attr, o.NT, p.Name)
		}
	}

	// Rule 4: inherited completeness on the extension's productions.
	for _, p := range ext.Prods {
		for ci, cnt := range p.ChildNTs {
			for occ := range occurs {
				if occ[1] != cnt || attrKind[occ[0]] != Inherited {
					continue
				}
				_, specific := inhEq[inhKey{p.Name, ci, occ[0]}]
				_, blanket := inhEq[inhKey{p.Name, -1, occ[0]}]
				if !specific && !blanket {
					fail("production %s does not define inherited %q for child %d (%s)",
						p.Name, occ[0], ci, cnt)
				}
			}
		}
	}
	// Inherited dual of rule 3: extension-declared inherited attributes
	// on host child nonterminals require equations on host productions.
	for _, o := range ext.Occurs {
		if attrOwner[o.Attr] != ext.Name || attrKind[o.Attr] != Inherited {
			continue
		}
		if ntOwner[o.NT] == ext.Name {
			continue
		}
		for pname, po := range prodOwner {
			if po != host.Name {
				continue
			}
			p := prodOf[pname]
			for ci, cnt := range p.ChildNTs {
				if cnt != o.NT {
					continue
				}
				_, specific := inhEq[inhKey{pname, ci, o.Attr}]
				_, blanket := inhEq[inhKey{pname, -1, o.Attr}]
				if !specific && !blanket {
					fail("extension inherited attribute %q occurs on host %s but host production %s child %d has no equation",
						o.Attr, o.NT, pname, ci)
				}
			}
		}
	}

	sort.Strings(r.Failures)
	r.Passed = len(r.Failures) == 0
	return r
}

func orHost(owner string) string {
	if owner == "" {
		return "host"
	}
	return owner
}

// CheckComplete verifies global completeness of a composed grammar:
// every production has equations (or a forward) for every synthesized
// attribute on its LHS, and inherited equations for all children.
// This is the conclusion the MWDA guarantees; the tests verify both.
func (g *Grammar) CheckComplete() []string {
	var out []string
	for name, p := range g.prods {
		for _, a := range g.AttrsOn(p.LHS, Synthesized) {
			if p.syn[p.nt.slotOf(Intern(a))] == nil && p.fwd == nil {
				out = append(out, fmt.Sprintf("%s lacks equation for %s", name, a))
			}
		}
		for ci, cnt := range p.kids {
			for _, a := range g.AttrsOn(cnt.name, Inherited) {
				if p.inh[ci][cnt.slotOf(Intern(a))] == nil {
					out = append(out, fmt.Sprintf("%s child %d lacks inherited %s", name, ci, a))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// Package attr is an attribute-grammar evaluation engine in the style
// of Silver (§VI-B of the paper): declarative specifications consisting
// of nonterminal declarations, attribute declarations (synthesized and
// inherited), occurs-on declarations, per-production attribute
// equations, and production forwarding. Attribute values may themselves
// be trees ("higher-order attributes", used by the transformation
// extension in §V).
//
// Specifications are composable: a host AGSpec plus extension AGSpecs
// merge into one Grammar, and the modular well-definedness analysis
// (mwda.go) checks, extension by extension, that any composition of
// passing extensions yields a complete attribute grammar.
//
// A specification is fixed and evaluated over many trees, so Compose
// compiles it into dense tables. Each nonterminal numbers the
// attributes its nodes can store (those that occur on it, and those an
// inherited equation of a parent production hands to it) as slots
// 0..n-1, n ≤ MaxSlots; each production holds its synthesized equations
// by slot and, per child, the inherited equations by the child's slot.
// A Tree node is a production pointer, a value per slot and two bit
// masks: evaluation is demand-driven, memoized in the slot, and finds
// cycles by the busy bit. Equations name attributes by handle (Intern),
// never by string. A composed Grammar is immutable and may evaluate
// trees from any number of goroutines at once; a Tree belongs to one.
package attr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// AttrKind distinguishes synthesized from inherited attributes.
type AttrKind int

// Attribute kinds.
const (
	Synthesized AttrKind = iota
	Inherited
)

func (k AttrKind) String() string {
	if k == Synthesized {
		return "synthesized"
	}
	return "inherited"
}

// Attr is a handle on an attribute name, the form in which equations
// demand attributes (Tree.Syn, Tree.Inh). Handles are process-wide
// symbols: Intern of one name always returns the same handle, whatever
// grammars declare that name. The zero Attr names no attribute.
type Attr int32

var symbols = struct {
	sync.RWMutex
	ids   map[string]Attr
	names []string
}{ids: map[string]Attr{}, names: []string{""}}

// Intern returns the handle for an attribute name. Specifications call
// it once per attribute, at package initialization, and close their
// equations over the handles.
func Intern(name string) Attr {
	symbols.Lock()
	defer symbols.Unlock()
	a, ok := symbols.ids[name]
	if !ok {
		a = Attr(len(symbols.names))
		symbols.ids[name] = a
		symbols.names = append(symbols.names, name)
	}
	return a
}

// String returns the attribute's name.
func (a Attr) String() string {
	symbols.RLock()
	defer symbols.RUnlock()
	return symbols.names[a]
}

// AttrDecl declares an attribute.
type AttrDecl struct {
	Name  string
	Kind  AttrKind
	Owner string // "" = host
}

// NTDecl declares a nonterminal (a category of tree nodes).
type NTDecl struct {
	Name  string
	Owner string
}

// ProdDecl declares a production: a node shape with an LHS nonterminal
// and typed child slots. Variadic productions have any number of
// children, all of nonterminal ChildNTs[0] (used for statement lists
// and the like).
type ProdDecl struct {
	Name     string
	LHS      string
	ChildNTs []string
	Variadic bool
	Owner    string
}

// SynEq is a synthesized-attribute equation for one production:
// computes the attribute on the production's own node.
type SynEq struct {
	Prod  string
	Attr  string
	Owner string
	F     func(t *Tree) any
}

// InhEq is an inherited-attribute equation: the parent production
// computes the attribute for child number `child` (any child if the
// production is variadic — the index is passed to F).
type InhEq struct {
	Prod  string
	Child int // -1 for "all children"
	Attr  string
	Owner string
	F     func(parent *Tree, child int) any
}

// FwdEq declares that a production forwards to another tree: lookups
// of synthesized attributes with no local equation are delegated to
// the forward tree, which receives the same inherited attributes.
// This is Silver's forwarding, the mechanism that lets extension
// productions translate themselves to host-language trees.
type FwdEq struct {
	Prod  string
	Owner string
	F     func(t *Tree) *Tree
}

// AGSpec is one composable attribute-grammar fragment.
type AGSpec struct {
	Name     string // owner tag; "" = host
	NTs      []NTDecl
	Attrs    []AttrDecl
	Occurs   []Occurs
	Prods    []ProdDecl
	SynEqs   []SynEq
	InhEqs   []InhEq
	Forwards []FwdEq
}

// Occurs declares that an attribute occurs on a nonterminal.
type Occurs struct {
	Attr  string
	NT    string
	Owner string
}

// MaxSlots is the number of attributes one nonterminal's nodes can
// store (the width of a node's done/busy masks).
const MaxSlots = 64

// Grammar is a composed, validated attribute grammar ready to
// evaluate trees. It is immutable.
type Grammar struct {
	nts   map[string]*ntInfo
	attrs map[string]AttrDecl
	prods map[string]*prodInfo
}

// ntInfo is a compiled nonterminal: the slot numbering of its nodes.
type ntInfo struct {
	name   string
	slot   []int8 // by Attr: the attribute's slot on this nonterminal, -1 if none
	attrs  []Attr // by slot
	occurs uint64 // by slot: declared to occur here (not merely the target of an inherited equation)
}

func (nt *ntInfo) slotOf(a Attr) int {
	if int(a) < len(nt.slot) {
		return int(nt.slot[a])
	}
	return -1
}

func (nt *ntInfo) occursAt(slot int) bool { return slot >= 0 && nt.occurs&(1<<uint(slot)) != 0 }

// prodInfo is a compiled production.
type prodInfo struct {
	ProdDecl
	g    *Grammar
	nt   *ntInfo
	kids []*ntInfo // by ChildNTs index
	syn  []*SynEq  // by slot of nt
	// inh[i] holds child i's inherited equations by slot of that child's
	// nonterminal, the production's all-children equations folded in
	// where child i has none of its own. A variadic production's last
	// row serves every child past its explicitly numbered ones.
	inh [][]*InhEq
	fwd *FwdEq
}

// inhRow returns the inherited equations of child i, rowNT the
// nonterminal of the children row i serves (a variadic production has
// one child nonterminal, and may have more rows than that).
func (p *prodInfo) inhRow(i int) []*InhEq { return p.inh[min(i, len(p.inh)-1)] }
func (p *prodInfo) rowNT(i int) *ntInfo   { return p.kids[min(i, len(p.kids)-1)] }

// Compose merges the host spec with extension specs into an evaluable
// grammar. Structural errors (duplicate equations, equations for
// undeclared things, a nonterminal needing more than MaxSlots slots)
// are reported; completeness is the MWDA's job.
func Compose(host *AGSpec, exts ...*AGSpec) (*Grammar, error) {
	g := &Grammar{
		nts:   map[string]*ntInfo{},
		attrs: map[string]AttrDecl{},
		prods: map[string]*prodInfo{},
	}
	all := append([]*AGSpec{host}, exts...)
	for _, s := range all {
		for _, nt := range s.NTs {
			if _, dup := g.nts[nt.Name]; dup {
				return nil, fmt.Errorf("attr: nonterminal %q declared twice", nt.Name)
			}
			g.nts[nt.Name] = &ntInfo{name: nt.Name}
		}
		for _, a := range s.Attrs {
			if _, dup := g.attrs[a.Name]; dup {
				return nil, fmt.Errorf("attr: attribute %q declared twice", a.Name)
			}
			g.attrs[a.Name] = a
		}
	}
	for _, s := range all {
		for _, p := range s.Prods {
			if _, dup := g.prods[p.Name]; dup {
				return nil, fmt.Errorf("attr: production %q declared twice", p.Name)
			}
			pi := &prodInfo{ProdDecl: p, g: g, nt: g.nts[p.LHS]}
			if pi.nt == nil {
				return nil, fmt.Errorf("attr: production %q has undeclared LHS %q", p.Name, p.LHS)
			}
			for _, c := range p.ChildNTs {
				if g.nts[c] == nil {
					return nil, fmt.Errorf("attr: production %q has undeclared child NT %q", p.Name, c)
				}
				pi.kids = append(pi.kids, g.nts[c])
			}
			pi.inh = make([][]*InhEq, len(pi.kids))
			g.prods[p.Name] = pi
		}
	}

	// Number the slots: the attributes that occur on a nonterminal, then
	// the ones inherited equations hand to it.
	var tooMany *ntInfo
	addSlot := func(nt *ntInfo, name string, occurs bool) {
		a := Intern(name)
		for len(nt.slot) <= int(a) {
			nt.slot = append(nt.slot, -1)
		}
		if nt.slot[a] < 0 {
			if len(nt.attrs) == MaxSlots {
				tooMany = nt
				return
			}
			nt.slot[a] = int8(len(nt.attrs))
			nt.attrs = append(nt.attrs, a)
		}
		if occurs {
			nt.occurs |= 1 << uint(nt.slot[a])
		}
	}
	for _, s := range all {
		for _, o := range s.Occurs {
			if _, ok := g.attrs[o.Attr]; !ok {
				return nil, fmt.Errorf("attr: occurs-on references undeclared attribute %q", o.Attr)
			}
			if g.nts[o.NT] == nil {
				return nil, fmt.Errorf("attr: occurs-on references undeclared nonterminal %q", o.NT)
			}
			addSlot(g.nts[o.NT], o.Attr, true)
		}
	}
	var inhEqs []*InhEq
	seen := map[inhKey]bool{}
	for _, s := range all {
		for i := range s.InhEqs {
			eq := &s.InhEqs[i]
			p := g.prods[eq.Prod]
			if p == nil {
				return nil, fmt.Errorf("attr: inherited equation for undeclared production %q", eq.Prod)
			}
			k := inhKey{eq.Prod, eq.Child, eq.Attr}
			if seen[k] {
				return nil, fmt.Errorf("attr: duplicate inherited equation %s[%d].%s", eq.Prod, eq.Child, eq.Attr)
			}
			seen[k] = true
			if eq.Child < -1 || !p.Variadic && eq.Child >= len(p.kids) {
				return nil, fmt.Errorf("attr: inherited equation %s[%d].%s: %s has %d children",
					eq.Prod, eq.Child, eq.Attr, eq.Prod, len(p.kids))
			}
			// A variadic production has a row per numbered child and a
			// last one for all the others.
			for p.Variadic && len(p.inh) < eq.Child+2 {
				p.inh = append(p.inh, nil)
			}
			for k, nt := range p.kids {
				if p.Variadic || eq.Child == -1 || eq.Child == k {
					addSlot(nt, eq.Attr, false)
				}
			}
			inhEqs = append(inhEqs, eq)
		}
	}
	if tooMany != nil {
		return nil, fmt.Errorf("attr: nonterminal %q needs more than %d attribute slots", tooMany.name, MaxSlots)
	}

	// Lay the equations out by slot.
	for _, p := range g.prods {
		p.syn = make([]*SynEq, len(p.nt.attrs))
		for r := range p.inh {
			p.inh[r] = make([]*InhEq, len(p.rowNT(r).attrs))
		}
	}
	for _, s := range all {
		for i := range s.SynEqs {
			eq := &s.SynEqs[i]
			p := g.prods[eq.Prod]
			if p == nil {
				return nil, fmt.Errorf("attr: equation for undeclared production %q", eq.Prod)
			}
			if !g.OccursOn(eq.Attr, p.LHS) {
				return nil, fmt.Errorf("attr: equation %s.%s but %q does not occur on %q",
					eq.Prod, eq.Attr, eq.Attr, p.LHS)
			}
			slot := p.nt.slotOf(Intern(eq.Attr))
			if prev := p.syn[slot]; prev != nil {
				return nil, fmt.Errorf("attr: duplicate equation for %s.%s (owners %q and %q)",
					eq.Prod, eq.Attr, prev.Owner, eq.Owner)
			}
			p.syn[slot] = eq
		}
		for i := range s.Forwards {
			f := &s.Forwards[i]
			p := g.prods[f.Prod]
			if p == nil {
				return nil, fmt.Errorf("attr: forward for undeclared production %q", f.Prod)
			}
			if p.fwd != nil {
				return nil, fmt.Errorf("attr: duplicate forward for %q", f.Prod)
			}
			p.fwd = f
		}
	}
	// The numbered inherited equations first, then each all-children
	// equation into every row that has none of its own.
	for _, numbered := range []bool{true, false} {
		for _, eq := range inhEqs {
			if (eq.Child >= 0) != numbered {
				continue
			}
			p := g.prods[eq.Prod]
			lo, hi := eq.Child, eq.Child+1
			if !numbered {
				lo, hi = 0, len(p.inh)
			}
			for r := lo; r < hi; r++ {
				if slot := p.rowNT(r).slotOf(Intern(eq.Attr)); p.inh[r][slot] == nil {
					p.inh[r][slot] = eq
				}
			}
		}
	}
	return g, nil
}

type inhKey struct {
	prod  string
	child int
	attr  string
}

// Prod returns the named production declaration.
func (g *Grammar) Prod(name string) (ProdDecl, bool) {
	if p, ok := g.prods[name]; ok {
		return p.ProdDecl, true
	}
	return ProdDecl{}, false
}

// OccursOn reports whether attr occurs on nt.
func (g *Grammar) OccursOn(attr, nt string) bool {
	n := g.nts[nt]
	return n != nil && n.occursAt(n.slotOf(Intern(attr)))
}

// AttrsOn returns the names of attributes of the given kind occurring
// on nt, sorted.
func (g *Grammar) AttrsOn(nt string, kind AttrKind) []string {
	n := g.nts[nt]
	if n == nil {
		return nil
	}
	var out []string
	for slot, a := range n.attrs {
		if name := a.String(); n.occursAt(slot) && g.attrs[name].Kind == kind {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// --- Trees and evaluation ---

// Tree is a decorated tree node: a production instance with children,
// an optional underlying value (e.g. the AST node or token it mirrors),
// and one value slot per attribute of its nonterminal.
type Tree struct {
	p        *prodInfo
	Value    any
	children []*Tree

	parent  *Tree
	childIx int // -1 on a forward tree, whose parent is the forwarding node

	vals       []any  // by slot
	done, busy uint64 // by slot: value present / equation running
	fwd        *Tree
	fwdDone    bool
}

// NewTree builds a node of the given production with children.
// Child count and child nonterminals are validated.
func (g *Grammar) NewTree(prod string, value any, children ...*Tree) (*Tree, error) {
	p, ok := g.prods[prod]
	if !ok {
		return nil, fmt.Errorf("attr: unknown production %q", prod)
	}
	if p.Variadic {
		for _, c := range children {
			if c.p.nt != p.kids[0] {
				return nil, fmt.Errorf("attr: %s child must be %s, got %s", prod, p.ChildNTs[0], c.p.LHS)
			}
		}
	} else {
		if len(children) != len(p.kids) {
			return nil, fmt.Errorf("attr: %s needs %d children, got %d", prod, len(p.ChildNTs), len(children))
		}
		for i, c := range children {
			if c.p.nt != p.kids[i] {
				return nil, fmt.Errorf("attr: %s child %d must be %s, got %s", prod, i, p.ChildNTs[i], c.p.LHS)
			}
		}
	}
	t := &Tree{p: p, Value: value, children: children, vals: make([]any, len(p.nt.attrs))}
	for i, c := range children {
		c.parent = t
		c.childIx = i
	}
	return t, nil
}

// MustTree is NewTree panicking on error; for tests and static specs.
func (g *Grammar) MustTree(prod string, value any, children ...*Tree) *Tree {
	t, err := g.NewTree(prod, value, children...)
	if err != nil {
		panic(err)
	}
	return t
}

// Prod returns the node's production name.
func (t *Tree) Prod() string { return t.p.Name }

// NT returns the node's nonterminal.
func (t *Tree) NT() string { return t.p.LHS }

// NumChildren returns the child count.
func (t *Tree) NumChildren() int { return len(t.children) }

// Child returns the i'th child.
func (t *Tree) Child(i int) *Tree { return t.children[i] }

// Syn evaluates a synthesized attribute on this node.
func (t *Tree) Syn(a Attr) any {
	slot := t.p.nt.slotOf(a)
	if !t.p.nt.occursAt(slot) {
		panic(evalError{fmt.Sprintf("attr: %q does not occur on %s", a, t.p.LHS)})
	}
	bit := uint64(1) << uint(slot)
	if t.done&bit != 0 {
		return t.vals[slot]
	}
	if t.busy&bit != 0 {
		panic(cycleError{fmt.Sprintf("attr: cycle evaluating synthesized %q on %s", a, t.p.Name)})
	}
	t.busy |= bit
	defer func() { t.busy &^= bit }()

	var v any
	if eq := t.p.syn[slot]; eq != nil {
		v = eq.F(t)
	} else if f := t.Forward(); f != nil {
		v = f.Syn(a)
	} else {
		panic(evalError{fmt.Sprintf("attr: no equation for %s.%s and no forward", t.p.Name, a)})
	}
	t.vals[slot] = v
	t.done |= bit
	return v
}

// Inh evaluates an inherited attribute on this node. The value comes
// from the parent's inherited equation for this child slot; a forward
// tree takes the forwarding node's own value, and a root node the one
// seeded with SetRootInh.
func (t *Tree) Inh(a Attr) any {
	slot := t.p.nt.slotOf(a)
	if slot < 0 {
		// No parent production hands this nonterminal the attribute, so
		// only a forward tree can have a value for it.
		if t.parent != nil && t.childIx < 0 {
			return t.parent.Inh(a)
		}
		panic(t.noInh(a))
	}
	bit := uint64(1) << uint(slot)
	if t.done&bit != 0 {
		return t.vals[slot]
	}
	if t.busy&bit != 0 {
		panic(cycleError{fmt.Sprintf("attr: cycle evaluating inherited %q on %s", a, t.p.Name)})
	}
	t.busy |= bit
	defer func() { t.busy &^= bit }()

	var v any
	if p := t.parent; p == nil {
		panic(t.noInh(a))
	} else if t.childIx < 0 {
		v = p.Inh(a)
	} else if eq := p.p.inhRow(t.childIx)[slot]; eq != nil {
		v = eq.F(p, t.childIx)
	} else {
		panic(t.noInh(a))
	}
	t.vals[slot] = v
	t.done |= bit
	return v
}

// noInh is the error for an inherited attribute nothing defines on t.
func (t *Tree) noInh(a Attr) evalError {
	if t.parent == nil {
		return evalError{fmt.Sprintf("attr: inherited %q demanded at root of %s without SetRootInh", a, t.p.Name)}
	}
	return evalError{fmt.Sprintf("attr: no inherited equation for %s child %d attr %q",
		t.parent.p.Name, t.childIx, a)}
}

// SetRootInh seeds an inherited attribute at the tree root. The
// attribute must have a slot on the root's nonterminal.
func (t *Tree) SetRootInh(a Attr, v any) {
	slot := t.p.nt.slotOf(a)
	if slot < 0 {
		panic(evalError{fmt.Sprintf("attr: no slot for %q on %s; SetRootInh needs an attribute that occurs there", a, t.p.LHS)})
	}
	t.vals[slot] = v
	t.done |= 1 << uint(slot)
}

// Forward returns the production's forward tree, computed once, or nil
// if it does not forward.
func (t *Tree) Forward() *Tree {
	if t.fwdDone {
		return t.fwd
	}
	t.fwdDone = true
	if f := t.p.fwd; f != nil {
		ft := f.F(t)
		if ft != nil {
			ft.parent = t
			ft.childIx = -1
			t.fwd = ft
		}
	}
	return t.fwd
}

type cycleError struct{ msg string }
type evalError struct{ msg string }

func (e cycleError) Error() string { return e.msg }
func (e evalError) Error() string  { return e.msg }

// SafeSyn evaluates a synthesized attribute, converting evaluation
// panics (cycles, missing equations) into errors.
func (t *Tree) SafeSyn(a Attr) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case cycleError, evalError:
				err = r.(error)
			default:
				panic(r)
			}
		}
	}()
	return t.Syn(a), nil
}

// String renders the tree structure (productions only).
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(t *Tree, depth int)
	rec = func(t *Tree, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(t.p.Name)
		b.WriteByte('\n')
		for _, c := range t.children {
			rec(c, depth+1)
		}
	}
	rec(t, 0)
	return b.String()
}

// LALR(1) parse-table construction. The algorithm is the classic
// efficient one (Dragon Book Alg. 4.62/4.63): build the LR(0)
// collection, then compute LALR lookaheads for kernel items by
// spontaneous generation and propagation, then fill ACTION/GOTO with
// precedence-based conflict resolution.
package grammar

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rx"
)

// symRef identifies a grammar symbol in compiled (integer) form.
type symRef struct {
	term bool
	id   int32
}

// compiled grammar: integer-indexed symbols and productions.
type compiled struct {
	g         *Grammar
	termNames []string // id -> name; id 0 is $eof
	ntNames   []string // id -> name
	termID    map[string]int32
	ntID      map[string]int32
	// prods[0] is the augmented start production S' -> Start.
	prods [][]symRef // RHS of each production
	lhs   []int32    // LHS nt id of each production
	src   []*Production
	byLHS [][]int32 // nt id -> production ids

	first    [][]bool // nt id -> terminal-id set
	nullable []bool
}

// item is an LR(0) item: production id and dot position.
type item struct {
	prod int32
	dot  int32
}

func (c *compiled) itemString(it item) string {
	var b strings.Builder
	if it.prod == 0 {
		b.WriteString("$start -> ")
	} else {
		b.WriteString(c.ntNames[c.lhs[it.prod]] + " -> ")
	}
	for i, s := range c.prods[it.prod] {
		if int32(i) == it.dot {
			b.WriteString(". ")
		}
		if s.term {
			b.WriteString(c.termNames[s.id])
		} else {
			b.WriteString(c.ntNames[s.id])
		}
		b.WriteByte(' ')
	}
	if it.dot == int32(len(c.prods[it.prod])) {
		b.WriteString(".")
	}
	return strings.TrimSpace(b.String())
}

func compile(g *Grammar) *compiled {
	c := &compiled{g: g, termID: map[string]int32{}, ntID: map[string]int32{}}
	c.termNames = append(c.termNames, EOFName)
	c.termID[EOFName] = 0
	// Deterministic ordering: declaration order for terminals,
	// sorted for nonterminals.
	for _, t := range g.Terminals() {
		if t.Skip {
			continue // skip terminals never reach the parser
		}
		c.termID[t.Name] = int32(len(c.termNames))
		c.termNames = append(c.termNames, t.Name)
	}
	ntNames := make([]string, 0, len(g.nts))
	for n := range g.nts {
		ntNames = append(ntNames, n)
	}
	sort.Strings(ntNames)
	for _, n := range ntNames {
		c.ntID[n] = int32(len(c.ntNames))
		c.ntNames = append(c.ntNames, n)
	}
	// Production 0: S' -> Start.
	c.prods = append(c.prods, []symRef{{term: false, id: c.ntID[g.Start]}})
	c.lhs = append(c.lhs, -1)
	c.src = append(c.src, nil)
	for _, p := range g.prods {
		rhs := make([]symRef, len(p.RHS))
		for i, s := range p.RHS {
			if id, ok := c.termID[s]; ok {
				rhs[i] = symRef{term: true, id: id}
			} else {
				rhs[i] = symRef{term: false, id: c.ntID[s]}
			}
		}
		c.prods = append(c.prods, rhs)
		c.lhs = append(c.lhs, c.ntID[p.LHS])
		c.src = append(c.src, p)
	}
	c.byLHS = make([][]int32, len(c.ntNames))
	for pi := 1; pi < len(c.prods); pi++ {
		l := c.lhs[pi]
		c.byLHS[l] = append(c.byLHS[l], int32(pi))
	}
	c.computeFirst()
	return c
}

func (c *compiled) computeFirst() {
	n := len(c.ntNames)
	c.first = make([][]bool, n)
	for i := range c.first {
		c.first[i] = make([]bool, len(c.termNames))
	}
	c.nullable = make([]bool, n)
	for changed := true; changed; {
		changed = false
		for pi := 1; pi < len(c.prods); pi++ {
			l := c.lhs[pi]
			allNullable := true
			for _, s := range c.prods[pi] {
				if s.term {
					if !c.first[l][s.id] {
						c.first[l][s.id] = true
						changed = true
					}
					allNullable = false
					break
				}
				for t, ok := range c.first[s.id] {
					if ok && !c.first[l][t] {
						c.first[l][t] = true
						changed = true
					}
				}
				if !c.nullable[s.id] {
					allNullable = false
					break
				}
			}
			if allNullable && !c.nullable[l] {
				c.nullable[l] = true
				changed = true
			}
		}
	}
}

// firstOfSeq appends FIRST(rest · la) to out, where rest is a symbol
// sequence and la is a terminal id (or dummyLA): la is included when
// the whole sequence is nullable. Duplicates are possible.
func (c *compiled) firstOfSeq(rest []symRef, la int32, out []int32) []int32 {
	for _, s := range rest {
		if s.term {
			return append(out, s.id)
		}
		for t, ok := range c.first[s.id] {
			if ok {
				out = append(out, int32(t))
			}
		}
		if !c.nullable[s.id] {
			return out
		}
	}
	return append(out, la)
}

// lr0State is one state of the LR(0) automaton: its kernel items
// (sorted) and transitions.
type lr0State struct {
	kernel []item
	trans  map[symRef]int32 // symbol -> target state
}

func kernelKey(items []item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d.%d;", it.prod, it.dot)
	}
	return b.String()
}

// closure0 returns all items derivable from the kernel by LR(0) closure.
func (c *compiled) closure0(kernel []item) []item {
	seen := map[item]bool{}
	var out []item
	var stack []item
	for _, it := range kernel {
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
			stack = append(stack, it)
		}
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rhs := c.prods[it.prod]
		if int(it.dot) >= len(rhs) || rhs[it.dot].term {
			continue
		}
		for _, pi := range c.byLHS[rhs[it.dot].id] {
			ni := item{prod: pi, dot: 0}
			if !seen[ni] {
				seen[ni] = true
				out = append(out, ni)
				stack = append(stack, ni)
			}
		}
	}
	return out
}

// buildLR0 constructs the canonical LR(0) collection.
func (c *compiled) buildLR0() []*lr0State {
	start := []item{{prod: 0, dot: 0}}
	states := []*lr0State{{kernel: start, trans: map[symRef]int32{}}}
	index := map[string]int32{kernelKey(start): 0}
	for si := 0; si < len(states); si++ {
		full := c.closure0(states[si].kernel)
		// group items by the symbol after the dot
		next := map[symRef][]item{}
		var symsInOrder []symRef
		for _, it := range full {
			rhs := c.prods[it.prod]
			if int(it.dot) >= len(rhs) {
				continue
			}
			s := rhs[it.dot]
			if _, ok := next[s]; !ok {
				symsInOrder = append(symsInOrder, s)
			}
			next[s] = append(next[s], item{prod: it.prod, dot: it.dot + 1})
		}
		// deterministic order
		sort.Slice(symsInOrder, func(i, j int) bool {
			a, b := symsInOrder[i], symsInOrder[j]
			if a.term != b.term {
				return a.term
			}
			return a.id < b.id
		})
		for _, s := range symsInOrder {
			kern := next[s]
			sort.Slice(kern, func(i, j int) bool {
				if kern[i].prod != kern[j].prod {
					return kern[i].prod < kern[j].prod
				}
				return kern[i].dot < kern[j].dot
			})
			key := kernelKey(kern)
			ti, ok := index[key]
			if !ok {
				ti = int32(len(states))
				index[key] = ti
				states = append(states, &lr0State{kernel: kern, trans: map[symRef]int32{}})
			}
			states[si].trans[s] = ti
		}
	}
	return states
}

const dummyLA int32 = -1

// lr1Item pairs an LR(0) item with one lookahead terminal.
type lr1Item struct {
	item
	la int32
}

// closer computes LR(1) closures for one BuildTable call, reusing its
// scratch between calls. Every item a closure adds has its dot at 0, so
// those are deduplicated in a dense table stamped with the call's
// generation instead of a map; only seeds can have the dot further on.
type closer struct {
	c      *compiled
	stride int32    // lookaheads per production: dummyLA plus every terminal
	stamp  []uint32 // [prod*stride+la+1] == gen: dot-0 item is in this closure
	gen    uint32
	las    []int32
	out    []lr1Item
	stack  []lr1Item
}

func (c *compiled) newCloser() *closer {
	stride := int32(len(c.termNames)) + 1
	return &closer{c: c, stride: stride, stamp: make([]uint32, int32(len(c.prods))*stride)}
}

// addDot0 reports whether the dot-0 item (prod, la) is new to the
// current closure, marking it.
func (cl *closer) addDot0(prod, la int32) bool {
	i := prod*cl.stride + la + 1
	if cl.stamp[i] == cl.gen {
		return false
	}
	cl.stamp[i] = cl.gen
	return true
}

// closure1 computes the LR(1) closure of the given items. The result
// is valid until the next call.
func (cl *closer) closure1(seed []lr1Item) []lr1Item {
	c := cl.c
	cl.gen++
	out, stack := cl.out[:0], cl.stack[:0]
	var seenSeed map[lr1Item]bool // seeds with the dot past 0
	for _, it := range seed {
		if it.dot == 0 {
			if !cl.addDot0(it.prod, it.la) {
				continue
			}
		} else {
			if seenSeed[it] {
				continue
			}
			if seenSeed == nil {
				seenSeed = make(map[lr1Item]bool, len(seed))
			}
			seenSeed[it] = true
		}
		out = append(out, it)
		stack = append(stack, it)
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rhs := c.prods[it.prod]
		if int(it.dot) >= len(rhs) || rhs[it.dot].term {
			continue
		}
		cl.las = c.firstOfSeq(rhs[it.dot+1:], it.la, cl.las[:0])
		for _, pi := range c.byLHS[rhs[it.dot].id] {
			for _, la := range cl.las {
				if cl.addDot0(pi, la) {
					ni := lr1Item{item{pi, 0}, la}
					out = append(out, ni)
					stack = append(stack, ni)
				}
			}
		}
	}
	cl.out, cl.stack = out, stack
	return out
}

// Action kinds.
const (
	actErr = iota
	actShift
	actReduce
	actAccept
)

func encShift(s int32) int32  { return s<<2 | actShift }
func encReduce(p int32) int32 { return p<<2 | actReduce }

const encAccept int32 = actAccept

func decode(a int32) (kind int, val int32) { return int(a & 3), a >> 2 }

// Conflict records an LALR table conflict (after precedence resolution
// failed to decide, or decided by default policy).
type Conflict struct {
	State    int
	Terminal string
	Kind     string // "shift/reduce" or "reduce/reduce"
	Detail   string
	Resolved string // how the default policy resolved it
}

func (c Conflict) String() string {
	return fmt.Sprintf("state %d on %s: %s conflict (%s) resolved as %s",
		c.State, c.Terminal, c.Kind, c.Detail, c.Resolved)
}

// Table is a constructed LALR(1) parse table.
type Table struct {
	c         *compiled
	states    []*lr0State
	action    [][]int32 // [state][terminal id]
	gotoTab   [][]int32 // [state][nt id], -1 = none
	Conflicts []Conflict
	valid     []TermSet // per state: terminals with a defined action (for the scanner)
	scan      *Scanner
	// lookaheads of each kernel item per state; kept for the
	// composability analysis.
	kernelLA [][]map[int32]bool
}

// NumStates returns the number of LALR states.
func (t *Table) NumStates() int { return len(t.states) }

// Grammar returns the grammar the table was built from.
func (t *Table) Grammar() *Grammar { return t.c.g }

// Describe returns the grammar's summary (Grammar.Describe) under the
// sizes of what was generated from it: the LR automaton and the
// scanner's two DFAs.
func (t *Table) Describe() string {
	return fmt.Sprintf("LALR(1): %d states, %d conflicts\nscanner: %d token DFA states, %d skip DFA states\n%s",
		len(t.states), len(t.Conflicts), t.scan.Tokens.NumStates(), t.scan.Skips.NumStates(), t.c.g.Describe())
}

// Scanner is the generated scanner of a composed grammar: one DFA for
// the union of its token terminals and one for its skip terminals. It
// is built with the LALR tables, lives as long as they do, and is
// immutable, so concurrent parses off one table share it without locks.
type Scanner struct {
	// Tokens matches the non-skip terminals. A pattern's index is its
	// terminal id, so a state's accept set intersects directly with the
	// parser's valid TermSet; index EOFID matches nothing.
	Tokens *rx.DFA
	// Skips matches the skip terminals; a pattern's index is its index
	// in SkipTerms.
	Skips *rx.DFA
	// Terms is the non-skip terminals by id, declaration order after
	// Terms[EOFID]; SkipTerms the skip terminals in declaration order.
	Terms     []*Terminal
	SkipTerms []*Terminal
}

// Scanner returns the scanner tables built for the table's grammar.
func (t *Table) Scanner() *Scanner { return t.scan }

func buildScanner(c *compiled) (*Scanner, error) {
	sc := &Scanner{Terms: make([]*Terminal, len(c.termNames))}
	for id, name := range c.termNames {
		sc.Terms[id] = c.g.terms[name]
	}
	for _, t := range c.g.Terminals() {
		if t.Skip {
			sc.SkipTerms = append(sc.SkipTerms, t)
		}
	}
	var err error
	if sc.Tokens, err = rx.BuildDFA(patterns(sc.Terms)); err != nil {
		return nil, fmt.Errorf("grammar: token scanner: %w", err)
	}
	if sc.Skips, err = rx.BuildDFA(patterns(sc.SkipTerms)); err != nil {
		return nil, fmt.Errorf("grammar: skip scanner: %w", err)
	}
	return sc, nil
}

func patterns(terms []*Terminal) []*rx.NFA {
	out := make([]*rx.NFA, len(terms))
	for i, t := range terms {
		out[i] = t.Pattern // nil for $eof
	}
	return out
}

// BuildTable constructs the LALR(1) table for g. Conflicts that are not
// resolved by declared precedence are resolved by the default policy
// (shift wins shift/reduce; earlier production wins reduce/reduce) and
// recorded in Table.Conflicts — callers decide whether to accept them.
func BuildTable(g *Grammar) (*Table, error) {
	c := compile(g)
	states := c.buildLR0()

	// --- LALR lookahead computation (spontaneous + propagation) ---
	// kernel lookahead sets, and propagation links between kernel items.
	la := make([][]map[int32]bool, len(states))
	type slot struct {
		state int32
		ki    int // kernel item index
	}
	kernelIndex := make([]map[item]int, len(states))
	for si, st := range states {
		la[si] = make([]map[int32]bool, len(st.kernel))
		kernelIndex[si] = map[item]int{}
		for ki, it := range st.kernel {
			la[si][ki] = map[int32]bool{}
			kernelIndex[si][it] = ki
		}
	}
	la[0][0][0] = true // $eof for the start item
	cl := c.newCloser()
	links := map[slot][]slot{}
	for si, st := range states {
		for ki, kit := range st.kernel {
			j := cl.closure1([]lr1Item{{kit, dummyLA}})
			for _, it := range j {
				rhs := c.prods[it.prod]
				if int(it.dot) >= len(rhs) {
					continue
				}
				s := rhs[it.dot]
				ti := st.trans[s]
				target := item{it.prod, it.dot + 1}
				tki := kernelIndex[ti][target]
				if it.la == dummyLA {
					from := slot{int32(si), ki}
					links[from] = append(links[from], slot{ti, tki})
				} else {
					la[ti][tki][it.la] = true
				}
			}
		}
	}
	// Propagate to fixpoint.
	for changed := true; changed; {
		changed = false
		for from, tos := range links {
			src := la[from.state][from.ki]
			for _, to := range tos {
				dst := la[to.state][to.ki]
				for t := range src {
					if !dst[t] {
						dst[t] = true
						changed = true
					}
				}
			}
		}
	}

	// --- Fill ACTION/GOTO ---
	t := &Table{c: c, states: states, kernelLA: la}
	t.action = make([][]int32, len(states))
	t.gotoTab = make([][]int32, len(states))
	t.valid = make([]TermSet, len(states))
	for si := range states {
		t.action[si] = make([]int32, len(c.termNames))
		t.gotoTab[si] = make([]int32, len(c.ntNames))
		for i := range t.gotoTab[si] {
			t.gotoTab[si][i] = -1
		}
	}
	for si, st := range states {
		for s, ti := range st.trans {
			if s.term {
				t.action[si][s.id] = encShift(ti)
			} else {
				t.gotoTab[si][s.id] = ti
			}
		}
	}
	for si, st := range states {
		// LR(1) closure of the kernel with computed lookaheads gives
		// reduce lookaheads for all items, including epsilon productions.
		var seed []lr1Item
		for ki, kit := range st.kernel {
			for l := range la[si][ki] {
				seed = append(seed, lr1Item{kit, l})
			}
		}
		full := cl.closure1(seed)
		for _, it := range full {
			if int(it.dot) != len(c.prods[it.prod]) {
				continue
			}
			if it.prod == 0 {
				if it.la == 0 {
					t.setAction(si, 0, encAccept)
				}
				continue
			}
			t.setAction(si, it.la, encReduce(it.prod))
		}
	}
	// valid terminal sets for the context-aware scanner, and the scanner.
	words := (len(c.termNames) + 63) / 64
	sets := make([]uint64, len(states)*words)
	for si := range states {
		v := TermSet(sets[si*words : (si+1)*words : (si+1)*words])
		for tid, a := range t.action[si] {
			if a != actErr {
				v[tid>>6] |= 1 << (tid & 63)
			}
		}
		t.valid[si] = v
	}
	var err error
	if t.scan, err = buildScanner(c); err != nil {
		return nil, err
	}
	return t, nil
}

// setAction installs an action, resolving conflicts by precedence and
// recording unresolved ones.
func (t *Table) setAction(state int, term int32, act int32) {
	cur := t.action[state][term]
	if cur == actErr || cur == act {
		t.action[state][term] = act
		return
	}
	ck, cv := decode(cur)
	nk, nv := decode(act)
	termName := t.c.termNames[term]
	// Normalize: shift in s, reduce in r.
	if ck == actShift && nk == actReduce {
		t.resolveSR(state, term, termName, cv, nv)
		return
	}
	if ck == actReduce && nk == actShift {
		t.resolveSR(state, term, termName, nv, cv)
		return
	}
	if ck == actReduce && nk == actReduce {
		keep, drop := cv, nv
		if nv < cv {
			keep, drop = nv, cv
		}
		t.action[state][term] = encReduce(keep)
		t.Conflicts = append(t.Conflicts, Conflict{
			State: state, Terminal: termName, Kind: "reduce/reduce",
			Detail:   fmt.Sprintf("%s vs %s", t.c.src[keep], t.c.src[drop]),
			Resolved: fmt.Sprintf("reduce %s (earlier production)", t.c.src[keep]),
		})
		return
	}
	// accept conflicts should be impossible with the augmented grammar
	t.Conflicts = append(t.Conflicts, Conflict{
		State: state, Terminal: termName, Kind: "other",
		Detail: fmt.Sprintf("action %d vs %d", cur, act), Resolved: "kept first",
	})
}

func (t *Table) resolveSR(state int, term int32, termName string, shiftTo, redProd int32) {
	tm := t.c.g.terms[termName]
	pPrec, pAssoc := t.c.g.prodPrec(t.c.src[redProd])
	switch {
	case tm.Prec > 0 && pPrec > 0 && tm.Prec > pPrec:
		t.action[state][term] = encShift(shiftTo)
	case tm.Prec > 0 && pPrec > 0 && tm.Prec < pPrec:
		t.action[state][term] = encReduce(redProd)
	case tm.Prec > 0 && pPrec > 0: // equal precedence: associativity
		switch pAssoc {
		case AssocLeft:
			t.action[state][term] = encReduce(redProd)
		case AssocRight:
			t.action[state][term] = encShift(shiftTo)
		default:
			t.action[state][term] = actErr // nonassoc: error entry
		}
	default:
		// No precedence information: default shift, record conflict.
		t.action[state][term] = encShift(shiftTo)
		t.Conflicts = append(t.Conflicts, Conflict{
			State: state, Terminal: termName, Kind: "shift/reduce",
			Detail:   fmt.Sprintf("shift vs reduce %s", t.c.src[redProd]),
			Resolved: "shift (default)",
		})
	}
}

// ValidTerminals returns the terminals with a defined action in the
// given state — the set the context-aware scanner may match.
func (t *Table) ValidTerminals(state int) TermSet { return t.valid[state] }

// ActionRow returns a copy of the (terminal name -> encoded action)
// row for a state; used by the composability analysis.
func (t *Table) ActionRow(state int) map[string]int32 {
	out := map[string]int32{}
	for tid, a := range t.action[state] {
		if a != actErr {
			out[t.c.termNames[tid]] = a
		}
	}
	return out
}

// StateKernelString renders a state's kernel items; for diagnostics.
func (t *Table) StateKernelString(state int) string {
	var b strings.Builder
	for _, it := range t.states[state].kernel {
		b.WriteString(t.c.itemString(it))
		b.WriteString("; ")
	}
	return strings.TrimSuffix(b.String(), "; ")
}

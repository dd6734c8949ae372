package rx

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// DFA is the deterministic automaton of the union of a list of
// patterns, made by subset construction over their NFAs. Every state
// carries the set of patterns that accept there and the set that can
// still accept further on, as bitsets over the pattern indices, so one
// walk of the input answers "which patterns match which prefixes" for
// all of them at once. This is the generated scanner: the composed
// grammar builds one per terminal set and the LR state's valid set
// filters the accept sets. A DFA is immutable once built.
type DFA struct {
	class [256]uint8 // byte -> byte class: bytes no pattern tells apart share one
	ncls  int
	// trans[state*ncls+class] is the next state. State 0 is dead (no
	// pattern can match any more), state 1 is the start.
	trans  []uint16
	words  int      // uint64 words per pattern set
	accept []uint64 // [state*words:][:words]: patterns accepting in state
	live   []uint64 // [state*words:][:words]: patterns with an NFA state in the subset
	all    []uint64 // every pattern: the filter Longest uses for a nil one
}

const (
	dfaDead  = 0
	dfaStart = 1
	// maxDFAStates is what a uint16 transition can address.
	maxDFAStates = 1 << 16
)

// unionNFA is the patterns' NFAs side by side in one state numbering.
type unionNFA struct {
	edges  [][]edge // per state, targets renumbered
	owner  []int32  // state -> pattern index
	accept []bool
	starts []int32
}

func newUnion(pats []*NFA) *unionNFA {
	u := &unionNFA{}
	for pi, n := range pats {
		if n == nil {
			continue
		}
		base := len(u.edges)
		for si, es := range n.states {
			moved := make([]edge, len(es))
			for i, e := range es {
				e.to += base
				moved[i] = e
			}
			u.edges = append(u.edges, moved)
			u.owner = append(u.owner, int32(pi))
			u.accept = append(u.accept, si == n.accept)
		}
		u.starts = append(u.starts, int32(base+n.start))
	}
	return u
}

// byteClasses partitions the 256 byte values so that two bytes share a
// class exactly when every consuming edge treats them alike; the
// subset construction then tries one byte per class, not 256. A byte
// some edge names literally is a class of its own; the others are
// grouped by which character classes they belong to.
func (u *unionNFA) byteClasses() (class [256]uint8, n int) {
	var lit [256]bool
	var sets []*classNode
	for _, es := range u.edges {
		for _, e := range es {
			switch {
			case e.eps:
			case e.lit:
				lit[e.ch] = true
			default:
				sets = append(sets, e.cls)
			}
		}
	}
	ids := map[string]uint8{}
	sig := make([]byte, 0, len(sets)+2)
	for b := 0; b < 256; b++ {
		sig = sig[:0]
		if lit[b] {
			sig = append(sig, 1, byte(b))
		}
		for _, c := range sets {
			if c.matches(byte(b)) {
				sig = append(sig, 1)
			} else {
				sig = append(sig, 0)
			}
		}
		id, ok := ids[string(sig)]
		if !ok {
			id = uint8(len(ids))
			ids[string(sig)] = id
		}
		class[b] = id
	}
	return class, len(ids)
}

// BuildDFA builds the DFA of the union of pats. A pattern's index in
// pats is its bit in the accept and live sets; a nil entry holds an
// index open and matches nothing (the grammar uses it for $eof, so
// that pattern indices are terminal ids).
func BuildDFA(pats []*NFA) (*DFA, error) {
	u := newUnion(pats)
	d := &DFA{words: (len(pats) + 63) / 64}
	if d.words == 0 {
		d.words = 1
	}
	d.class, d.ncls = u.byteClasses()
	var rep [256]byte // one byte of each class
	for b := 255; b >= 0; b-- {
		rep[d.class[b]] = byte(b)
	}
	d.all = make([]uint64, d.words)
	for pi, n := range pats {
		if n != nil {
			d.all[pi>>6] |= 1 << (pi & 63)
		}
	}

	// closure expands set by epsilon edges, sorts it and returns it with
	// its key; mark is a generation-stamped visited table.
	mark := make([]uint32, len(u.edges))
	gen := uint32(0)
	var keyBuf []byte
	closure := func(set []int32) ([]int32, string) {
		gen++
		for _, s := range set {
			mark[s] = gen
		}
		for i := 0; i < len(set); i++ {
			for _, e := range u.edges[set[i]] {
				if e.eps && mark[e.to] != gen {
					mark[e.to] = gen
					set = append(set, int32(e.to))
				}
			}
		}
		slices.Sort(set)
		set = slices.Compact(set)
		keyBuf = keyBuf[:0]
		for _, s := range set {
			keyBuf = binary.LittleEndian.AppendUint32(keyBuf, uint32(s))
		}
		return set, string(keyBuf)
	}

	var subsets [][]int32
	index := map[string]uint16{}
	addState := func(set []int32, key string) uint16 {
		id := uint16(len(subsets))
		subsets = append(subsets, set)
		index[key] = id
		d.trans = append(d.trans, make([]uint16, d.ncls)...)
		acc := make([]uint64, 2*d.words)
		for _, s := range set {
			p := u.owner[s]
			acc[d.words+int(p>>6)] |= 1 << (p & 63)
			if u.accept[s] {
				acc[p>>6] |= 1 << (p & 63)
			}
		}
		d.accept = append(d.accept, acc[:d.words]...)
		d.live = append(d.live, acc[d.words:]...)
		return id
	}
	addState(nil, "") // dead
	addState(closure(slices.Clone(u.starts)))

	var consuming []edge
	for si := dfaStart; si < len(subsets); si++ {
		consuming = consuming[:0]
		for _, s := range subsets[si] {
			for _, e := range u.edges[s] {
				if !e.eps {
					consuming = append(consuming, e)
				}
			}
		}
		for c := 0; c < d.ncls; c++ {
			b := rep[c]
			var next []int32
			for _, e := range consuming {
				if e.lit && e.ch == b || !e.lit && e.cls.matches(b) {
					next = append(next, int32(e.to))
				}
			}
			if len(next) == 0 {
				continue // stays dead
			}
			set, key := closure(next)
			to, ok := index[key]
			if !ok {
				if len(subsets) == maxDFAStates {
					return nil, fmt.Errorf("rx: the union of %d patterns needs more than %d DFA states", len(pats), maxDFAStates)
				}
				to = addState(set, key)
			}
			d.trans[si*d.ncls+c] = to
		}
	}
	return d, nil
}

// NumStates returns the number of DFA states, the dead state included.
func (d *DFA) NumStates() int { return len(d.trans) / d.ncls }

// Start returns the start state.
func (d *DFA) Start() int { return dfaStart }

// Step returns the state after reading b in state s; 0 is the dead
// state, from which no pattern can match.
func (d *DFA) Step(s int, b byte) int { return int(d.trans[s*d.ncls+int(d.class[b])]) }

// Accept returns the set of patterns that accept in state s. The
// slice is shared: do not modify it.
func (d *DFA) Accept(s int) []uint64 { return d.accept[s*d.words : (s+1)*d.words] }

// Live returns the set of patterns that can still accept in s or
// beyond it. The slice is shared: do not modify it.
func (d *DFA) Live(s int) []uint64 { return d.live[s*d.words : (s+1)*d.words] }

// Longest walks input from offset once and returns the length of the
// longest prefix that a pattern in valid matches, with the state the
// walk was in there: Accept(state) ∩ valid is the set of patterns that
// match that prefix. It returns n = -1 if no pattern in valid matches
// any prefix (n = 0 means one of them matches the empty string). A nil
// valid admits every pattern; otherwise valid must have a word for
// every 64 patterns.
func (d *DFA) Longest(input string, offset int, valid []uint64) (n, state int) {
	if valid == nil {
		valid = d.all
	}
	n = -1
	s := dfaStart
	for i := offset; ; i++ {
		for k, a := range d.Accept(s) {
			if a&valid[k] != 0 {
				n, state = i-offset, s
				break
			}
		}
		if i >= len(input) {
			return n, state
		}
		if s = d.Step(s, input[i]); s == dfaDead {
			return n, state
		}
	}
}

// Cilk determinacy-race detection. For every spawn…sync region the
// scanner keeps the set of outstanding spawns, each carrying the
// spawned call's read/write effect sets mapped into the caller's
// alias frame (summary.go). Every access the parallel continuation
// makes — and every new sibling spawn — is intersected against the
// outstanding writes: a write/read or write/write overlap with no
// sync in between is a determinacy race (CM-RACE). Reading the target
// variable of an outstanding spawn is a separate lint
// (CM-SYNC-MISSING): the result is only stored at the sync, so the
// read observes the stale value. Fire-and-forget spawns of provably
// pure functions are dead work (CM-SPAWN-DEAD).
//
// Branches scan with copies of the outstanding set and union at the
// join; loop bodies are rescanned until the state stabilizes so
// cross-iteration races (spawn in one iteration, conflicting access
// in the next) are seen. Each pass mints new atoms for what the body
// allocates, so two passes' states are compared up to that renaming:
// by the nodes the atoms were made at. A (spawn, symbol) dedup map shared across
// branch copies keeps each race reported once. I/O-vs-I/O overlap is
// deliberately not flagged: spawned prints interleave, but that is
// visible nondeterminism the user asked for, not a memory race.
package vet

import (
	"fmt"
	"slices"

	"repro/internal/ast"
	"repro/internal/source"
)

// spawnInfo is one outstanding spawn: the spawned call's effects in
// caller-frame terms.
type spawnInfo struct {
	stmt   *ast.SpawnStmt
	fname  string
	reads  aset
	writes aset
	havoc  bool
	target string // "" for fire-and-forget, cleared if reassigned
}

// raceScan is the per-function scan state threaded through the alias
// walker. snapshot/join give branch semantics; seen is shared across
// all copies so duplicates collapse.
type raceScan struct {
	c      *checker
	w      *walker
	active []*spawnInfo
	seen   map[string]bool
}

func (r *raceScan) snapshot() *raceScan {
	cp := &raceScan{c: r.c, w: r.w, seen: r.seen}
	cp.active = append([]*spawnInfo(nil), r.active...)
	return cp
}

// join unions other's outstanding spawns into r (branch join),
// reporting whether r changed.
func (r *raceScan) join(other *raceScan) bool {
	if other == nil {
		return false
	}
	have := make(map[*spawnInfo]bool, len(r.active))
	for _, sp := range r.active {
		have[sp] = true
	}
	changed := false
	for _, sp := range other.active {
		if !have[sp] {
			r.active = append(r.active, sp)
			changed = true
		}
	}
	return changed
}

// sameActive reports whether before, the outstanding spawns a loop pass
// started with, are r's up to the renaming of atoms: a pass that spawns
// again what an earlier one spawned, over matrices made at the same
// nodes, adds nothing the scan has not seen.
func (r *raceScan) sameActive(before []*spawnInfo) bool {
	return r.spawnsWithin(before, r.active) && r.spawnsWithin(r.active, before)
}

// spawnsWithin reports whether every spawn of a has a like one in b.
func (r *raceScan) spawnsWithin(a, b []*spawnInfo) bool {
	for _, x := range a {
		if !slices.ContainsFunc(b, func(y *spawnInfo) bool {
			return x == y || x.stmt == y.stmt && x.target == y.target && x.havoc == y.havoc &&
				r.w.sameSet(x.reads, y.reads) && r.w.sameSet(x.writes, y.writes)
		}) {
			return false
		}
	}
	return true
}

func (r *raceScan) sync() { r.active = r.active[:0] }

func (r *raceScan) once(sp *spawnInfo, kind, sym string) bool {
	key := fmt.Sprintf("%s|%d|%s", kind, sp.stmt.Span().Start.Offset, sym)
	if r.seen[key] {
		return false
	}
	r.seen[key] = true
	return true
}

func spawnedHere(sp *spawnInfo) []source.Related {
	s := sp.stmt.Span()
	if !s.Start.IsValid() {
		return nil
	}
	return []source.Related{{Span: s, Message: fmt.Sprintf("%q spawned here, still outstanding", sp.fname)}}
}

// access checks one continuation access against every outstanding
// spawn.
func (r *raceScan) access(n ast.Node, write bool, s aset) {
	if s.empty() {
		return
	}
	for _, sp := range r.active {
		sym, conflict := s.overlapDesc(sp.writes, r.w)
		spWrote := conflict
		if !conflict && write {
			sym, conflict = s.overlapDesc(sp.reads, r.w)
		}
		if !conflict && sp.havoc {
			sym, conflict = "shared state", true
		}
		if !conflict {
			continue
		}
		if !r.once(sp, "race", sym) {
			continue
		}
		spVerb, hereVerb := "reads", "read"
		if spWrote {
			spVerb = "writes"
		}
		if write {
			hereVerb = "written"
		}
		r.c.report(CodeRace, source.Warning, n, spawnedHere(sp),
			"determinacy race on %s: the spawned call to %q %s it, and it is %s here with no sync in between",
			sym, sp.fname, spVerb, hereVerb)
	}
}

// identRead flags reads of an outstanding spawn's target variable.
func (r *raceScan) identRead(x *ast.Ident) {
	for _, sp := range r.active {
		if sp.target != x.Name {
			continue
		}
		if r.once(sp, "sync-missing", x.Name) {
			r.c.report(CodeSyncMissing, source.Warning, x, spawnedHere(sp),
				"%q is the target of an outstanding spawn; its value is only stored at sync, so this read sees the stale pre-spawn value",
				x.Name)
		}
	}
}

// targetAssigned clears the stale-target lint when the continuation
// deliberately reassigns the target before the sync.
func (r *raceScan) targetAssigned(name string) {
	for _, sp := range r.active {
		if sp.target == name {
			sp.target = ""
		}
	}
}

// spawned registers a new outstanding spawn, first checking it
// against its already-outstanding siblings.
func (r *raceScan) spawned(s *ast.SpawnStmt, call *ast.CallExpr, sum *summary, args []aset) {
	sp := &spawnInfo{stmt: s, fname: call.Fun, target: s.Target}
	if sum != nil {
		sp.reads, sp.writes, sp.havoc = r.mapEffects(call, sum, args)
		if s.Target == "" && sum.pure() {
			r.c.report(CodeSpawnDead, source.Warning, s, nil,
				"spawned call to %q has no target and no observable effect; the spawned work is dead",
				call.Fun)
		}
	} else if _, declared := r.w.info.Funcs[call.Fun]; declared {
		sp.havoc = true
	} else {
		sp.reads, sp.writes = builtinSpawnEffects(call, args)
	}

	for _, old := range r.active {
		sym, conflict := sp.writes.overlapDesc(joined(old.reads, old.writes), r.w)
		if !conflict {
			sym, conflict = sp.reads.overlapDesc(old.writes, r.w)
		}
		if !conflict && (sp.havoc && !(old.reads.empty() && old.writes.empty()) ||
			old.havoc && !(sp.reads.empty() && sp.writes.empty())) {
			sym, conflict = "shared state", true
		}
		if conflict && r.once(old, "race", sym) {
			r.c.report(CodeRace, source.Warning, s, spawnedHere(old),
				"determinacy race on %s: spawned calls to %q and %q run concurrently and at least one writes it",
				sym, old.fname, call.Fun)
		}
	}
	r.active = append(r.active, sp)
}

func joined(a, b aset) aset {
	out := a.clone()
	out.union(b)
	return out
}

// mapEffects translates a callee summary into caller-frame read/write
// alias sets.
func (r *raceScan) mapEffects(call *ast.CallExpr, sum *summary, args []aset) (reads, writes aset, havoc bool) {
	sig := r.w.calleeSig(call)
	for bit := 0; bit < 64; bit++ {
		m := uint64(1) << bit
		if sum.pRead&m == 0 && sum.pWrite&m == 0 {
			continue
		}
		a, ok := r.w.calleeArg(sig, bit, args)
		if !ok {
			continue
		}
		if sum.pRead&m != 0 {
			reads.union(a)
		}
		if sum.pWrite&m != 0 {
			writes.union(a)
		}
	}
	for g := range sum.gRead {
		reads.union(aset{globals: map[string]bool{g: true}})
	}
	for g := range sum.gWrite {
		writes.union(aset{globals: map[string]bool{g: true}})
	}
	return reads, writes, sum.havoc
}

// builtinSpawnEffects models a spawned builtin: its arguments' storage
// is read (or written, for the rc mutators) concurrently.
func builtinSpawnEffects(call *ast.CallExpr, args []aset) (reads, writes aset) {
	switch call.Fun {
	case "rcset", "rcrelease":
		if len(args) > 0 {
			writes.union(args[0])
		}
		for _, a := range args[1:] {
			reads.union(a)
		}
	default:
		for _, a := range args {
			reads.union(a)
		}
	}
	return reads, writes
}

// raceCheck runs the determinacy-race scan over every function.
func raceCheck(c *checker, prog *ast.Program, sums map[string]*summary) {
	for _, d := range prog.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			raceScanFunc(c, prog, sums, fd)
		}
	}
}

// raceScanFunc runs the race scan over fd when it spawns, and returns
// the walker that did (nil when it does not spawn).
func raceScanFunc(c *checker, prog *ast.Program, sums map[string]*summary, fd *ast.FuncDecl) *walker {
	if !spawns(fd.Body) {
		return nil
	}
	w := newWalker(prog, c.info, sums)
	w.race = &raceScan{c: c, w: w, seen: map[string]bool{}}
	w.bindParams(fd)
	w.stmt(fd.Body)
	return w
}

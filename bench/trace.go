package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary. Spans of one op
// share Op; Parent is the ID of the span that caused this one (-1 for
// a root). Source is "reported" when the interval's length was taken
// from the program's own response (stages, duration_ms) instead of
// being timed by the harness; such a span is laid inside its parent
// after its reported siblings, so only its length means anything.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Scope   string `json:"scope"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Source  string `json:"source,omitempty"`

	under string // reported spans: name of the parent span within the op
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. The wrappers the
// harness puts around handlers and transports test armed first, so an
// untraced window pays one atomic load per boundary.
type tracer struct {
	armed atomic.Bool
	t0    time.Time

	mu    sync.Mutex
	scope string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// arm starts recording under scope (the workload being replayed).
func (t *tracer) arm(scope string) {
	t.mu.Lock()
	t.scope = scope
	t.mu.Unlock()
	t.armed.Store(true)
}

func (t *tracer) disarm() { t.armed.Store(false) }

// add records a span the harness timed itself.
func (t *tracer) add(op int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: -1, Scope: t.scope, Op: op, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// addReported records a span whose length the program reported; nest
// places it under the op's span called under.
func (t *tracer) addReported(op int64, name, under string, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: -1, Scope: t.scope, Op: op, Name: name,
		EndNS: int64(d), Source: "reported", under: under,
	})
	t.mu.Unlock()
}

// take returns the spans recorded so far. A hedged forward's losing
// copy may still be recording, hence the lock and the copy.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// nest fills in Parent. Timed spans of one op nest by containment: a
// span's parent is the shortest span of the op that encloses it.
// Reported spans go under the latest span of the op named by under,
// laid end to end from its start and clipped to its end.
func nest(spans []span) {
	type key struct {
		scope string
		op    int64
	}
	byOp := map[key][]int{}
	for i := range spans {
		k := key{spans[i].Scope, spans[i].Op}
		byOp[k] = append(byOp[k], i)
	}
	for _, ids := range byOp {
		var timed, reported []int
		for _, i := range ids {
			if spans[i].Source == "reported" {
				reported = append(reported, i)
			} else {
				timed = append(timed, i)
			}
		}
		// Longest first, so every candidate parent precedes its children.
		sort.SliceStable(timed, func(a, b int) bool {
			return spans[timed[a]].dur() > spans[timed[b]].dur()
		})
		for n, i := range timed {
			for m := n - 1; m >= 0; m-- {
				p := timed[m]
				if spans[p].StartNS <= spans[i].StartNS && spans[i].EndNS <= spans[p].EndNS {
					spans[i].Parent = spans[p].ID
					break
				}
			}
		}
		// Reported spans may name another reported span as their parent,
		// and were recorded parent first.
		free := map[int]int64{} // parent -> where its next reported child starts
		for _, i := range reported {
			for m := len(ids) - 1; m >= 0; m-- {
				p := ids[m]
				if p == i || spans[p].Name != spans[i].under {
					continue
				}
				start, ok := free[p]
				if !ok {
					start = spans[p].StartNS
				}
				end := min(start+spans[i].dur(), spans[p].EndNS)
				spans[i].Parent, spans[i].StartNS, spans[i].EndNS = spans[p].ID, start, end
				free[p] = end
				break
			}
		}
	}
}

// selfTimes returns, per span ID, the span's length minus the part of
// it its children cover (overlapping children, such as a hedged pair of
// forwards, are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), spans[i].StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > spans[i].EndNS {
				hi = spans[i].EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = spans[i].dur() - covered
	}
	return self
}

// The paper's §III-C runtime, kept as an exhibit: workers spawned once
// and sent "straight into a spin lock", released together by a
// generation counter, collected by a stop barrier in which the main
// thread spins too. internal/par shipped this until the scaling ladder
// (BENCH_scaling.json) convicted it; it lives on here so E8 and the
// ladder's second rung keep measuring the model the paper describes.
package repro_test

import (
	"runtime"
	"sync/atomic"
)

type spinPool struct {
	nWorkers int
	gen      atomic.Uint64 // work generation; bumped to release workers
	done     atomic.Int64  // stop barrier: workers done with current gen
	stop     atomic.Bool
	body     func(worker, n int)
}

// newSpinPool spawns n workers that spin until work arrives or the
// pool is shut down.
func newSpinPool(n int) *spinPool {
	p := &spinPool{nWorkers: n}
	for w := 0; w < n; w++ {
		go p.worker(w)
	}
	return p
}

func (p *spinPool) worker(id int) {
	lastGen := uint64(0)
	for {
		for spins := 1; ; spins++ {
			if p.stop.Load() {
				return
			}
			if g := p.gen.Load(); g != lastGen {
				lastGen = g
				break
			}
			if spins%64 == 0 {
				runtime.Gosched() // so an oversubscribed pool still progresses
			}
		}
		p.body(id, p.nWorkers)
		p.done.Add(1)
	}
}

// run releases the workers on body and spins in the stop barrier until
// all of them are through.
func (p *spinPool) run(body func(worker, n int)) {
	p.body = body
	p.done.Store(0)
	p.gen.Add(1)
	for spins := 1; p.done.Load() < int64(p.nWorkers); spins++ {
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}

// forBlocks is the static schedule of the generated pthread code: one
// contiguous block of [0, n) per worker.
func (p *spinPool) forBlocks(n int, body func(lo, hi int)) {
	p.run(func(worker, workers int) {
		lo, hi := staticBlock(n, worker, workers)
		if lo < hi {
			body(lo, hi)
		}
	})
}

func (p *spinPool) shutdown() { p.stop.Store(true) }

// staticBlock is worker w's ceil-sized block of [0, n).
func staticBlock(n, w, workers int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	return min(w*chunk, n), min(w*chunk+chunk, n)
}

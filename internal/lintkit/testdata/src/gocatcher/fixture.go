// Package sph is the gocatcher fixture; the package name puts it inside the
// analyzer's compute fan-out scope.
package sph

import (
	"sync"

	"repro/internal/par"
)

// fanOutContained is the sanctioned pattern: workers defer Catch, the
// spawner rethrows after the join.
func fanOutContained(n int) {
	var wg sync.WaitGroup
	var c par.Catcher
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Catch()
			work()
		}()
	}
	wg.Wait()
	c.Rethrow()
}

// fanOutBare launches workers with no containment at all.
func fanOutBare(n int) {
	for i := 0; i < n; i++ {
		go func() { // want "no panic containment"
			work()
		}()
	}
}

// recovered contains the panic with a deferred recovering literal.
func recovered() {
	go func() {
		defer func() { _ = recover() }()
		work()
	}()
}

// namedBare launches a named same-package function whose body has no
// containment.
func namedBare() {
	go work() // want "without panic containment"
}

// namedContained launches a named function that installs its own guard.
func namedContained() {
	go guardedWork()
}

// unresolvable launches through a function value the analyzer cannot chase.
func unresolvable(f func()) {
	go f() // want "unresolvable callee"
}

func guardedWork() {
	defer func() { _ = recover() }()
	work()
}

func work() {}

// pool is generic: the launched method resolves through the instantiated
// receiver to the one declaration the package holds.
type pool[T any] struct{ item T }

func (p *pool[T]) guarded() {
	defer func() { _ = recover() }()
	work()
}

func (p *pool[T]) bare() { work() }

func genericMethods(p *pool[int]) {
	go p.guarded()
	go p.bare() // want "without panic containment"
}

// Fixture for the package-level waiver, type-checked under a
// deterministic package path: the header directive below waives the
// goroutine rule for the whole package, the way a package of
// barrier-synchronized workers would. The other strict rules must
// keep firing — a waiver names exactly one directive.
//
//lint:package goroutine barrier-synchronized workers, joined every round
package shard

type state struct {
	counts map[int]int
}

// round may spawn workers freely under the package waiver.
func round(fns []func()) {
	done := make(chan struct{})
	for _, fn := range fns {
		fn := fn
		go func() { fn(); done <- struct{}{} }()
	}
	for range fns {
		<-done
	}
}

// merge shows the waiver is scoped to its named directive: map
// iteration is still a finding here.
func merge(s state) int {
	sum := 0
	for k, v := range s.counts { // want "range over map in deterministic package"
		sum += k + v
	}
	return sum
}

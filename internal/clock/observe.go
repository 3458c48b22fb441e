package clock

import "time"

// observePeriod is how often Observe runs its pass on a clock that is not
// virtual.
const observePeriod = 2 * time.Millisecond

// Observe runs pass on clk until it returns false: the one way a harness
// reads a run on the run's clock. On a *Virtual the pass is the settle
// hook: it runs on the driver at the end of every instant, sees the
// instant as its callbacks left it, and what it arms runs before time
// moves. On any other clock it is a chain of AfterFunc callbacks, one
// every 2 ms, each armed once the one before it returned. A pass that
// returns false is not run again, and a virtual clock's settle hook is
// cleared.
func Observe(clk Clock, pass func(now time.Time) bool) {
	if v, ok := clk.(*Virtual); ok {
		v.onSettle(func(now time.Time) {
			if !pass(now) {
				v.onSettle(nil)
			}
		})
		return
	}
	var next func()
	next = func() {
		if pass(clk.Now()) {
			clk.AfterFunc(observePeriod, next)
		}
	}
	clk.AfterFunc(observePeriod, next)
}

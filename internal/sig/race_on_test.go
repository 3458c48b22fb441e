//go:build race

package sig

// raceDetector: the race runtime allocates on the instrumented paths and
// drops pooled items at random, so pool-dependent allocation fences are
// asserted on plain builds only (CI's "allocation budget" step).
const raceDetector = true

//go:build race

package failsignal

// raceDetector: the race runtime allocates on the instrumented paths, so
// the allocation budgets are asserted on plain builds only (CI's
// "allocation budget" step).
const raceDetector = true

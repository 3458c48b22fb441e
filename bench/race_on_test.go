//go:build race

package bench

// raceDetector: under the race detector a simulated chaos second costs
// ~1.4 wall seconds (parent and this commit alike), so wall < simulated
// comparisons are asserted on plain builds only.
const raceDetector = true

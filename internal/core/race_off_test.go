//go:build !race

package failsignal

const raceDetector = false

//go:build !race

package sig

const raceDetector = false

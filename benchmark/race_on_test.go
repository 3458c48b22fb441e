//go:build race

package main

// smokeSeconds is longer under the race detector, which slows a saturated
// 10-member group tenfold.
const smokeSeconds = 3

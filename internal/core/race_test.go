//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of its Puts, so code drawing pooled scratch
// (knapsack's Algorithm 1 rounds) allocates now and then.
const raceEnabled = true

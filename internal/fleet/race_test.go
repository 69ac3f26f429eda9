//go:build race

package fleet

// The race detector makes sync.Pool drop records at random, so pooled
// allocation budgets only hold without it.
func init() { raceEnabled = true }

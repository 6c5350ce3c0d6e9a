//go:build race

package serve

// The race runtime allocates more bytes per request than the budgets
// in warm_test.go price.
func init() { raceEnabled = true }

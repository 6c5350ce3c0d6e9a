//go:build race

package keeper_test

// The race runtime allocates more bytes per request than the budgets in
// allocs_test.go price.
func init() { raceEnabled = true }

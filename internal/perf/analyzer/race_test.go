//go:build race

package analyzer_test

// The race runtime allocates more bytes per report than the budget in
// stream_test.go prices.
func init() { raceEnabled = true }

//go:build race

package solve

// raceEnabled shrinks the differential corpus: race instrumentation makes
// the searches an order of magnitude slower.
const raceEnabled = true

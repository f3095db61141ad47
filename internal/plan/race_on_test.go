//go:build race

package plan

// raceEnabled gates the allocation-budget guard: race instrumentation adds
// its own allocations, so the budget only holds in unraced builds.
const raceEnabled = true

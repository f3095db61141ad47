//go:build !race

package solve

const raceEnabled = false

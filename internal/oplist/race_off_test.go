//go:build !race

package oplist

const raceEnabled = false

//go:build !race

package xenstore

const raceEnabled = false

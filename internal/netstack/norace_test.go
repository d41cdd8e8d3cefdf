//go:build !race

package netstack

const raceEnabled = false

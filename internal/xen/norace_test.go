//go:build !race

package xen

const raceEnabled = false

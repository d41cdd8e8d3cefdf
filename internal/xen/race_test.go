//go:build race

package xen

// raceEnabled: the race detector splits slices.Insert's growth into two
// allocations, so exact counts are one higher for a child slice that grows.
const raceEnabled = true

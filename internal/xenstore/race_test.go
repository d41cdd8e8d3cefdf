//go:build race

package xenstore

// raceEnabled: the race detector's instrumentation turns off the
// compiler's fusion of append(s, make([]T, n)...) — the growth step of
// slices.Insert — into one allocation, so exact counts are one higher
// for every child slice that grows.
const raceEnabled = true

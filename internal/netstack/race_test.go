//go:build race

package netstack

// raceEnabled: the race detector's instrumentation turns off the
// compiler's fusion of append(s, make([]T, n)...) — slices.Grow's body —
// into one allocation, so each growth costs one object more with it.
const raceEnabled = true

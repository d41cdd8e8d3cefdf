//go:build race

package wire

// raceEnabled: the race detector's instrumentation turns off the
// compiler's fusion of append(s, make([]T, n)...) — slices.Grow's body —
// into one allocation, so exact allocation counts only hold without it.
const raceEnabled = true

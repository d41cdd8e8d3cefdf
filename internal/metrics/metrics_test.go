package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSeriesPercentiles(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 1; i <= 100; i++ {
		s.Add(ms(i))
	}
	if got := s.Percentile(0); got != ms(1) {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(1); got != ms(100) {
		t.Errorf("p100 = %v", got)
	}
	p50 := s.Percentile(0.5)
	if p50 < ms(50) || p50 > ms(51) {
		t.Errorf("p50 = %v", p50)
	}
	if s.Min() != ms(1) || s.Max() != ms(100) {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != ms(50)+500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{Name: "empty"}
	if s.Percentile(0.5) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series should return zeros")
	}
	if s.FracBelow(time.Second) != 0 {
		t.Fatal("empty FracBelow should be 0")
	}
}

func TestFracBelow(t *testing.T) {
	s := &Series{}
	for i := 1; i <= 10; i++ {
		s.Add(ms(i * 100))
	}
	if got := s.FracBelow(ms(500)); got != 0.5 {
		t.Fatalf("FracBelow(500ms) = %v", got)
	}
	if got := s.FracBelow(ms(10000)); got != 1.0 {
		t.Fatalf("FracBelow(max) = %v", got)
	}
	if got := s.FracBelow(ms(1)); got != 0 {
		t.Fatalf("FracBelow(min-1) = %v", got)
	}
}

func TestSummaryContainsFields(t *testing.T) {
	s := &Series{Name: "boot"}
	s.Add(350 * time.Millisecond)
	s.Add(2 * time.Second)
	s.Add(800 * time.Microsecond)
	out := s.Summary()
	for _, want := range []string{"boot", "n=3", "p50", "p99", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table 1: Power", "Board", "Idle (W)", "Active (W)")
	tab.AddRow("Cubieboard2", 1.43, 2.61)
	tab.AddRow("Cubietruck", 1.72, 2.86)
	out := tab.String()
	if !strings.Contains(out, "Table 1: Power") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "Cubieboard2") || !strings.Contains(out, "1.43") {
		t.Errorf("missing data in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Columns must align: header and row lines have equal length prefix structure.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("separator misaligned with header:\n%s", out)
	}
}

func TestTableDurationFormatting(t *testing.T) {
	tab := NewTable("", "what", "dur")
	tab.AddRow("boot", 350*time.Millisecond)
	tab.AddRow("rtt", 500*time.Microsecond)
	tab.AddRow("slow", 2*time.Second)
	out := tab.String()
	for _, want := range []string{"350.0ms", "500µs", "2.00s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestASCIICDF(t *testing.T) {
	a := &Series{Name: "jitsu"}
	b := &Series{Name: "docker"}
	for i := 1; i <= 50; i++ {
		a.Add(ms(i * 2))
		b.Add(ms(i * 20))
	}
	out := ASCIICDF("Figure 9", a, b)
	for _, want := range []string{"Figure 9", "jitsu", "docker", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCIICDF missing %q:\n%s", want, out)
		}
	}
}

// Property: Percentile is monotone and bracketed by Min/Max for any
// sample set.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []uint16, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := &Series{}
		for _, v := range vals {
			s.Add(time.Duration(v))
		}
		if q1 != q1 || q2 != q2 { // NaN
			return true
		}
		if q1 < 0 {
			q1 = 0
		}
		if q1 > 1 {
			q1 = 1
		}
		if q2 < 0 {
			q2 = 0
		}
		if q2 > 1 {
			q2 = 1
		}
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Percentile(q1), s.Percentile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FracBelow(Percentile(q)) >= q - 1/n (CDF consistency up to
// the interpolation convention, which can land between two samples).
func TestCDFConsistencyProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		s := &Series{}
		for _, v := range vals {
			s.Add(time.Duration(v))
		}
		slack := 1.0 / float64(len(vals))
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if s.FracBelow(s.Percentile(q)) < q-slack-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSummarizeMatchesPercentile pins the digest against the per-call
// path: same interpolation, one sort.
func TestSummarizeMatchesPercentile(t *testing.T) {
	s := &Series{Name: "digest"}
	for i := 97; i > 0; i -= 3 {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	d := s.Summarize()
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := d.Percentile(q), s.Percentile(q); got != want {
			t.Errorf("Summarize().Percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if d.P50() != s.Percentile(0.5) || d.P95() != s.Percentile(0.95) {
		t.Error("P50/P95 diverge from Percentile")
	}
	if d.Min() != s.Min() || d.Max() != s.Max() || d.Mean() != s.Mean() || d.Len() != s.Len() {
		t.Error("Min/Max/Mean/Len diverge from Series")
	}
	// Samples added after the digest do not shift it.
	before := d.Max()
	s.Add(time.Hour)
	if d.Max() != before {
		t.Error("digest reflects samples added after Summarize")
	}
}

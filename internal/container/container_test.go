package container

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/metrics"
	"jitsu/internal/sim"
)

// startMany runs n container starts back-to-back and returns the
// latency series and the failure count.
func startMany(t *testing.T, storage Storage, underXen bool, n int) (*metrics.Series, int) {
	t.Helper()
	eng := sim.New(5)
	rt := NewRuntime(eng, storage, underXen)
	series := &metrics.Series{Name: storage.Name}
	failures := 0
	var next func(i int)
	next = func(i int) {
		if i >= n {
			return
		}
		rt.Start(WebServerImage(), func(c *Container, err error) {
			if err != nil {
				failures++
			} else {
				series.Add(c.Elapsed)
			}
			next(i + 1)
		})
	}
	next(0)
	eng.Run()
	return series, failures
}

func TestSDCardStartAboveOneSecond(t *testing.T) {
	s, failures := startMany(t, SDCard(), false, 100)
	if failures != 0 {
		t.Fatalf("SD card injected %d failures", failures)
	}
	// "Docker takes at least 1.1s (native Linux) ... to spawn a new
	// container".
	if min := s.Summarize().Min(); min < 900*time.Millisecond {
		t.Errorf("fastest SD start = %v, want ≈1.1s", min)
	}
	if p50 := s.Summarize().Percentile(0.5); p50 < time.Second || p50 > 2*time.Second {
		t.Errorf("median SD start = %v", p50)
	}
}

func TestXenDom0Slower(t *testing.T) {
	native, _ := startMany(t, SDCard(), false, 100)
	dom0, _ := startMany(t, SDCard(), true, 100)
	if dom0.Summarize().Percentile(0.5) <= native.Summarize().Percentile(0.5) {
		t.Errorf("dom0 median (%v) not slower than native (%v)",
			dom0.Summarize().Percentile(0.5), native.Summarize().Percentile(0.5))
	}
}

func TestTmpfsFasterButAboveSixHundredMs(t *testing.T) {
	tmpfs, _ := startMany(t, TmpfsLoopback(), false, 200)
	sd, _ := startMany(t, SDCard(), false, 100)
	if tmpfs.Summarize().Percentile(0.5) >= sd.Summarize().Percentile(0.5) {
		t.Error("tmpfs not faster than SD card")
	}
	// "container start times remained at 600ms or higher".
	if min := tmpfs.Summarize().Min(); min < 500*time.Millisecond {
		t.Errorf("fastest tmpfs start = %v, want >= ~600ms", min)
	}
}

func TestTmpfsFaultInjection(t *testing.T) {
	_, failures := startMany(t, TmpfsLoopback(), false, 300)
	// "a significant fraction of tests resulting in early process
	// termination" — we model 9%; accept 4–16% over 300 trials.
	frac := float64(failures) / 300
	if frac < 0.04 || frac > 0.16 {
		t.Errorf("tmpfs failure fraction = %.2f, want ≈0.09", frac)
	}
	eng := sim.New(6)
	rt := NewRuntime(eng, TmpfsLoopback(), false)
	sawErr := false
	for i := 0; i < 100 && !sawErr; i++ {
		rt.Start(WebServerImage(), func(c *Container, err error) {
			if errors.Is(err, ErrEarlyTermination) {
				sawErr = true
			}
		})
		eng.Run()
	}
	if !sawErr {
		t.Error("never observed ErrEarlyTermination")
	}
	if rt.Failures == 0 {
		t.Error("failure counter not incremented")
	}
}

func TestInetdService(t *testing.T) {
	eng := sim.New(7)
	rt := NewRuntime(eng, SDCard(), false)
	svc := &InetdService{
		Runtime:         rt,
		Image:           WebServerImage(),
		RequestOverhead: sim.Exponential{Base: 5 * time.Millisecond},
	}
	var total sim.Duration
	svc.HandleRequest(func(d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		total = d
	})
	eng.Run()
	if total < time.Second {
		t.Errorf("inetd-triggered response = %v, want > 1s on SD", total)
	}
	if rt.Starts != 1 {
		t.Errorf("starts = %d", rt.Starts)
	}
}

func TestStartsDeterministicPerSeed(t *testing.T) {
	a, _ := startMany(t, SDCard(), false, 20)
	b, _ := startMany(t, SDCard(), false, 20)
	if a.Len() != b.Len() {
		t.Fatal("different lengths")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
)

// checkOrdered holds the name-ordered slice to the map it shadows: the
// same entries, in sorted-key order.
func checkOrdered(t *testing.T, j *Jitsu, when string) {
	t.Helper()
	names := make([]string, 0, len(j.services))
	for name := range j.services {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(j.ordered) != len(names) {
		t.Fatalf("%s: ordered holds %d services, the map %d", when, len(j.ordered), len(names))
	}
	for i, name := range names {
		if j.ordered[i] != j.services[name] {
			t.Fatalf("%s: ordered[%d] = %q, want the entry registered as %q", when, i, j.ordered[i].Cfg.Name, name)
		}
	}
}

// TestOrderedDirectoryMatchesMap plays seeded streams of Register,
// re-Register under a held name, and Deregister — of live entries and
// of ones a re-registration already replaced — and after every
// operation holds the ordered slice to the map, and a counter summed
// over the slice to the same counter summed over the map.
func TestOrderedDirectoryMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		j := b.Jitsu
		var handed []*Service // every *Service Register returned, replaced ones too
		for step := 0; step < 200; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(3); {
			case op < 2:
				n := rng.Intn(40) // few names: most registrations past the first 40 replace
				svc := j.Register(ServiceConfig{
					Name:  fmt.Sprintf("Site%02d.family.name", n), // canonicalised on the way in
					IP:    netstack.IPv4(10, 0, 1, byte(step)),
					Port:  80,
					Image: unikernel.UnikernelImage("site", unikernel.NewStaticSiteApp("site")),
				})
				svc.Launches = uint64(rng.Intn(100))
				handed = append(handed, svc)
			case len(handed) > 0:
				svc := handed[rng.Intn(len(handed))]
				live := j.services[svc.Cfg.Name] == svc
				if got := j.Deregister(svc); got != live {
					t.Fatalf("%s: Deregister(%s) = %v, want %v", when, svc.Cfg.Name, got, live)
				}
			}
			checkOrdered(t, j, when)
			var viaMap uint64
			for _, svc := range j.services {
				viaMap += svc.Launches
			}
			if got := j.sumCounters(func(s *Service) uint64 { return s.Launches }); got != viaMap {
				t.Fatalf("%s: launches summed over the slice = %d, over the map = %d", when, got, viaMap)
			}
		}
	}
}

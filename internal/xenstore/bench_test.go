package xenstore

import (
	"errors"
	"fmt"
	"testing"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "xenstore".

func BenchmarkTx(b *testing.B) {
	for _, n := range []struct {
		name  string
		nodes int
	}{{"100", 100}, {"1k", 1000}, {"10k", 10000}} {
		b.Run("n="+n.name, func(b *testing.B) {
			s := populated(n.nodes)
			b.ReportAllocs()
			for b.Loop() {
				probeTx(s)
			}
		})
	}
}

func BenchmarkRead(b *testing.B) {
	s := populated(1000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Read(Dom0, nil, "/local/domain/60/key3"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkList(b *testing.B) {
	for _, children := range []int{8, 256} {
		b.Run(fmt.Sprint("children=", children), func(b *testing.B) {
			s := NewStore(JitsuReconciler{})
			for i := 0; i < children; i++ {
				s.Write(Dom0, nil, fmt.Sprintf("/tool/dir/k%d", i), "v")
			}
			b.ReportAllocs()
			for b.Loop() {
				if names, _ := s.List(Dom0, nil, "/tool/dir"); len(names) != children {
					b.Fatal(len(names))
				}
			}
		})
	}
}

// BenchmarkConflictReplay is the retry the toolstack pays under
// parallel domain builds: two transactions write one leaf, the loser's
// commit comes back ErrAgain and it redoes its work from Begin.
func BenchmarkConflictReplay(b *testing.B) {
	s := populated(1000)
	const leaf = "/local/domain/60/key3"
	b.ReportAllocs()
	for b.Loop() {
		loser, winner := s.Begin(Dom0), s.Begin(Dom0)
		s.Write(Dom0, winner, leaf, "w")
		s.Write(Dom0, loser, leaf, "l")
		if err := winner.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := loser.Commit(); !errors.Is(err, ErrAgain) {
			b.Fatal(err)
		}
		retry := s.Begin(Dom0)
		s.Write(Dom0, retry, leaf, "l")
		if err := retry.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImmediateWrite has no snapshot outstanding: nothing is copied.
func BenchmarkImmediateWrite(b *testing.B) {
	s := populated(1000)
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Write(Dom0, nil, "/local/domain/60/key3", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxCommit is one domain build's write set through Commit's
// two outcomes: nothing landed since Begin (fast-forward), and one
// immediate write landed just before Commit (merge).
func BenchmarkTxCommit(b *testing.B) {
	for _, merge := range []bool{false, true} {
		name := "fastforward"
		if merge {
			name = "merge"
		}
		b.Run(name, func(b *testing.B) {
			s := populated(1000)
			b.ReportAllocs()
			for b.Loop() {
				if err := buildTx(s, 5000, merge); err != nil {
					b.Fatal(err)
				}
				if err := s.Rm(Dom0, nil, "/local/domain/5000"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParsePath(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := parsePath("/local/domain/60/device/vif/0/state"); err != nil {
			b.Fatal(err)
		}
	}
}

// Package power models the boards' power draw (Table 1). The paper
// measured 5V USB input with a custom inline meter; our model is
// additive — base board draw plus per-component deltas, each with an
// idle and an active level — calibrated against every row of Table 1.
package power

import (
	"fmt"
	"sort"
)

// Component is an attachable power consumer.
type Component string

// Components measured in the paper.
const (
	Ethernet Component = "ethernet"
	SSD      Component = "ssd"
)

// Draw is an idle/active pair in watts.
type Draw struct {
	IdleW, ActiveW float64
}

// at interpolates the draw at a utilisation in [0,1].
func (d Draw) at(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return d.IdleW + (d.ActiveW-d.IdleW)*util
}

// Board is a power model for one device.
type Board struct {
	Name string
	// Base is the bare board: CPU idle vs spinning.
	Base Draw
	// Components maps attachable parts to their deltas. A component's
	// "active" applies when the board is active (the paper activates
	// everything together in the "Spinning and active components" column).
	Components map[Component]Draw
}

// Cubieboard2 reproduces the Table 1 rows for the Cubieboard2.
func Cubieboard2() *Board {
	return &Board{
		Name: "Cubieboard2",
		Base: Draw{IdleW: 1.43, ActiveW: 2.61},
		Components: map[Component]Draw{
			// +Ethernet idle 2.10 (Δ0.67); active 2.58 — the PHY's
			// negotiated power dominates and the CPU's duty cycle drops
			// while the NIC streams, hence the negative active delta.
			Ethernet: {IdleW: 0.67, ActiveW: -0.03},
			// +SSD idle 3.36 (Δ1.93); active 4.49 (Δ1.88).
			SSD: {IdleW: 1.93, ActiveW: 1.88},
		},
	}
}

// Cubietruck reproduces the Table 1 rows for the Cubietruck.
func Cubietruck() *Board {
	return &Board{
		Name: "Cubietruck",
		Base: Draw{IdleW: 1.72, ActiveW: 2.86},
		Components: map[Component]Draw{
			Ethernet: {IdleW: 0.86, ActiveW: 0.90},
			SSD:      {IdleW: 2.20, ActiveW: 2.65},
		},
	}
}

// IntelNUC is the x86 comparison point ("Intel Haswell NUC").
func IntelNUC() *Board {
	return &Board{
		Name:       "Intel Haswell NUC",
		Base:       Draw{IdleW: 6.84, ActiveW: 27.02},
		Components: map[Component]Draw{},
	}
}

// Power returns the draw in watts with the given components attached at
// utilisation util (0 = idle, 1 = spinning with active components).
func (b *Board) Power(components []Component, util float64) float64 {
	w := b.Base.at(util)
	for _, c := range components {
		if d, ok := b.Components[c]; ok {
			w += d.at(util)
		}
	}
	return w
}

// Table1Row is one row of the reproduced table.
type Table1Row struct {
	Config         string
	IdleW, ActiveW float64
}

// Table1 regenerates the full table for a set of boards.
func Table1(boards ...*Board) []Table1Row {
	var rows []Table1Row
	for _, b := range boards {
		configs := [][]Component{nil, {Ethernet}, {SSD}, {SSD, Ethernet}}
		names := []string{"", " +Ethernet", " +SSD", " +SSD+Ethernet"}
		for i, cfg := range configs {
			if len(cfg) > 0 {
				missing := false
				for _, c := range cfg {
					if _, ok := b.Components[c]; !ok {
						missing = true
					}
				}
				if missing {
					continue
				}
			}
			rows = append(rows, Table1Row{
				Config:  b.Name + names[i],
				IdleW:   round2(b.Power(cfg, 0)),
				ActiveW: round2(b.Power(cfg, 1)),
			})
		}
	}
	return rows
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// String renders the board's component list for logs.
func (b *Board) String() string {
	comps := make([]string, 0, len(b.Components))
	for c := range b.Components {
		comps = append(comps, string(c))
	}
	sort.Strings(comps)
	return fmt.Sprintf("%s%v", b.Name, comps)
}

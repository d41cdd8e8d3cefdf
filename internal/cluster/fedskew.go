package cluster

import "jitsu/internal/obs"

// The root's load decisions, all read off its summary table: where a
// refused service spills (spillTarget), how a pushed row lands
// (applySummary), when sustained skew orders a shed (checkSkew), and the
// shed command itself (orderShed).

// spillTarget picks the least-loaded live cluster other than from.
func (f *Federation) spillTarget(from int) *FedMember {
	var best *FedMember
	bestLoad := uint32(0)
	for _, m := range f.members {
		if s := f.root.summaries[m.ID]; s != nil && !m.Left && m.ID != from {
			if best == nil || s.LoadMilli < bestLoad {
				best, bestLoad = m, s.LoadMilli
			}
		}
	}
	return best
}

// applySummary merges one pushed row into the summary table. An epoch
// move means the member's directory changed: every cached delegation
// and negative answer may be stale, so the root epoch bumps (wholesale,
// exactly like dns.Server's own answer cache).
func (r *fedRoot) applySummary(s Summary, periodic bool) {
	if r.f.live(s.Cluster) == nil {
		return
	}
	row := r.summaries[s.Cluster]
	if row == nil || row.Epoch != s.Epoch {
		r.bumpEpoch()
	}
	if row == nil {
		row = new(Summary)
		r.summaries[s.Cluster] = row
	}
	*row = s
	if periodic {
		r.checkSkew(s.Cluster)
	}
}

// checkSkew runs the sustained-skew detector after a periodic push from
// cluster `from`: when the same cluster stays hottest — above
// skewMinRate, with the coldest cluster at or below skewRatio of it —
// for skewRounds consecutive rounds, the root commands a shed from the
// hottest to the coldest cluster, with no operator in the loop.
func (r *fedRoot) checkSkew(from int) {
	if r.f.Cfg.skewMinRate <= 0 {
		return
	}
	hot, cold := -1, -1
	var hotLoad, coldLoad uint32
	for _, m := range r.f.members {
		s := r.summaries[m.ID]
		if s == nil || m.Left {
			continue
		}
		if hot < 0 || s.LoadMilli > hotLoad {
			hot, hotLoad = m.ID, s.LoadMilli
		}
		if cold < 0 || s.LoadMilli < coldLoad {
			cold, coldLoad = m.ID, s.LoadMilli
		}
	}
	if hot < 0 || cold < 0 || hot == cold {
		return
	}
	skewed := float64(hotLoad)/1000 >= r.f.Cfg.skewMinRate &&
		float64(coldLoad) <= r.f.Cfg.skewRatio*float64(hotLoad)
	if !skewed {
		r.hotID, r.hotStreak = -1, 0
		return
	}
	if hot != r.hotID {
		r.hotID, r.hotStreak = hot, 0
	}
	if from != hot {
		return // one streak tick per round, counted on the hot row's push
	}
	r.hotStreak++
	if r.hotStreak < r.f.Cfg.skewRounds {
		return
	}
	r.hotStreak = 0
	r.orderShed(hot, cold, r.f.Cfg.shedBatch)
}

// orderShed sends cluster hot's agent the command to move batch services
// to cluster cold — the detector's and the operator's one datagram.
func (r *fedRoot) orderShed(hot, cold, batch int) {
	r.f.Sheds++
	if tr := r.f.Cfg.tracer; tr != nil {
		tr.Instant(0, "fed", "shed",
			obs.Num("hot", int64(hot)), obs.Num("cold", int64(cold)), obs.Num("batch", int64(batch)))
	}
	buf := []byte{fedOpShed, byte(cold >> 8), byte(cold), byte(batch)}
	r.mgmt.SendUDP(agentMgmtIP(hot), fedPort, fedPort, buf)
}

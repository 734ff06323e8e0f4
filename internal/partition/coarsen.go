package partition

import (
	"slices"
	"sort"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// edgeWeights computes a weight per edge reflecting the execution-time
// impact of paying a bus latency on it (§2.3.1 step 1, after [1]): edges
// whose slack cannot absorb the bus latency are critical and get high
// weight; loop-carried and memory edges get low weight (memory edges never
// cost a communication at all).
func edgeWeights(g *ddg.Graph, m machine.Config, ii int, sc *Scratch) []int {
	w := grown(sc.w, g.NumEdges())
	sc.w = w
	tm := g.ComputeTimingScratch(ii, &sc.timing)
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind == ddg.EdgeMem {
			w[i] = 0
			continue
		}
		slack := tm.Slack(g, e, ii)
		impact := m.BusLatency - slack
		if impact < 0 {
			impact = 0
		}
		// Base weight 1 keeps connected nodes attractive to merge even off
		// the critical path (fewer communications); the impact term
		// dominates for critical edges.
		w[i] = 1 + 4*impact
	}
	return w
}

// macroSet is the result of coarsening: nodes grouped into macro-nodes,
// stored without per-macro slices so the whole set lives in the arena.
// Macro ids are compact, assigned in increasing order of the original
// representative node.
type macroSet struct {
	n int // number of macros
	// macroOf[v] is v's macro id.
	macroOf []int
	// counts[m] are the per-class operation counts of macro m; size[m] its
	// node count.
	counts [][ddg.NumClasses]int
	size   []int
	// Members of macro m are memFlat[memOff[m]:memOff[m+1]], ascending.
	memFlat, memOff []int
}

// macroPair is a candidate merge during coarsening.
type macroPair struct {
	a, b, w int
}

// coarsen groups nodes into macro-nodes by repeated maximum-weight matching
// over the macro graph, stopping at m.Clusters macros or when no further
// merge is possible. Merges that would overflow a single cluster's capacity
// at the given ii are rejected, so a macro always fits in one cluster.
func coarsen(g *ddg.Graph, m machine.Config, ii int, w []int, sc *Scratch) *macroSet {
	// Coarsening cap: a macro must fit in at least one cluster, so use the
	// largest per-class capacity across clusters at this ii.
	var cap [ddg.NumClasses]int
	for cl := range cap {
		for c := 0; c < m.Clusters; c++ {
			if x := m.FUAt(c, ddg.Class(cl)) * ii; x > cap[cl] {
				cap[cl] = x
			}
		}
	}

	n := g.NumNodes()
	// Working macro ids are original node ids; dead macros have size 0.
	macroOf := grown(sc.macroOf, n)
	sc.macroOf = macroOf
	counts := zeroed(sc.mcounts, n)
	sc.mcounts = counts
	size := grown(sc.msize, n)
	sc.msize = size
	for v := range g.Nodes {
		macroOf[v] = v
		counts[v][g.Nodes[v].Op.Class()]++
		size[v] = 1
	}
	alive := n

	for alive > m.Clusters {
		pairs := macroPairs(g, macroOf, w, sc)
		matched := zeroed(sc.matched, n)
		sc.matched = matched
		merges := 0
		for _, p := range pairs {
			if alive-merges <= m.Clusters {
				break
			}
			if matched[p.a] || matched[p.b] {
				continue
			}
			if !fitsTogether(&counts[p.a], &counts[p.b], cap) {
				continue
			}
			mergeMacros(macroOf, counts, size, p.a, p.b)
			matched[p.a], matched[p.b] = true, true
			merges++
		}
		if merges == 0 {
			// Matching stuck (disconnected graph or capacity limits): merge
			// smallest compatible pairs regardless of connectivity, else stop.
			if !forceMerge(macroOf, counts, size, cap, sc) {
				break
			}
			alive--
			continue
		}
		alive -= merges
	}
	return compactMacros(macroOf, counts, size, sc)
}

// macroPairs returns one macroPair (a < b) per pair of distinct macros that
// an edge connects, weighted by the sum of those edges' weights (memory
// edges connect at weight 0), sorted by weight descending, then a, then b.
// Edges are bucketed by their lower macro id with a counting sort and each
// bucket's partner weights summed through a stamped slot array, so no map
// is involved; the sort order is total, so the bucket walk cannot show in
// the result.
func macroPairs(g *ddg.Graph, macroOf, w []int, sc *Scratch) []macroPair {
	n := len(macroOf)
	// off[lo] ends as the end of bucket lo (the start of bucket lo+1).
	off := zeroed(sc.bucketOff, n+1)
	sc.bucketOff = off
	for i := range g.Edges {
		e := &g.Edges[i]
		if ma, mb := macroOf[e.Src], macroOf[e.Dst]; ma != mb {
			off[min(ma, mb)+1]++
		}
	}
	for lo := 0; lo < n; lo++ {
		off[lo+1] += off[lo]
	}
	bucket := grown(sc.bucket, g.NumEdges())
	sc.bucket = bucket
	for i := range g.Edges {
		e := &g.Edges[i]
		if ma, mb := macroOf[e.Src], macroOf[e.Dst]; ma != mb {
			lo := min(ma, mb)
			bucket[off[lo]] = int32(i)
			off[lo]++
		}
	}

	// slot[hi] indexes the pair (lo, hi) in pairs while hi is stamped for
	// the current bucket.
	slot := grown(sc.slot, n)
	sc.slot = slot
	pairs := grown(sc.pairs, g.NumEdges())[:0]
	start := 0
	for lo := 0; lo < n; lo++ {
		end := off[lo]
		if start == end {
			continue
		}
		sc.seen.Reset(n)
		for _, eid := range bucket[start:end] {
			e := &g.Edges[eid]
			hi := max(macroOf[e.Src], macroOf[e.Dst])
			if !sc.seen.Has(int32(hi)) {
				sc.seen.Set(int32(hi))
				slot[hi] = len(pairs)
				pairs = append(pairs, macroPair{a: lo, b: hi})
			}
			pairs[slot[hi]].w += w[eid]
		}
		start = end
	}
	sc.pairs = pairs
	// Deterministic order: weight desc, then IDs.
	slices.SortFunc(pairs, func(x, y macroPair) int {
		if x.w != y.w {
			return y.w - x.w
		}
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	return pairs
}

// compactMacros renumbers the live macros (size > 0) of a coarsening in
// increasing representative order and buckets their members. The
// counts/size/macroOf arrays are rewritten in place (the write index never
// passes the read index).
func compactMacros(macroOf []int, counts [][ddg.NumClasses]int, size []int, sc *Scratch) *macroSet {
	n := len(macroOf)
	ms := &sc.ms
	ms.n = 0
	ms.macroOf = macroOf
	compact := grown(sc.compact, n)
	sc.compact = compact
	for i := 0; i < n; i++ {
		if size[i] > 0 {
			compact[i] = ms.n
			counts[ms.n] = counts[i]
			size[ms.n] = size[i]
			ms.n++
		}
	}
	ms.counts = counts[:ms.n]
	ms.size = size[:ms.n]
	for v := 0; v < n; v++ {
		ms.macroOf[v] = compact[macroOf[v]]
	}
	// Bucket members by macro (counting sort keeps them ascending).
	ms.memOff = zeroed(sc.memOff, ms.n+1)
	sc.memOff = ms.memOff
	ms.memFlat = grown(sc.memFlat, n)
	sc.memFlat = ms.memFlat
	for v := 0; v < n; v++ {
		ms.memOff[ms.macroOf[v]+1]++
	}
	for i := 0; i < ms.n; i++ {
		ms.memOff[i+1] += ms.memOff[i]
	}
	for v := 0; v < n; v++ {
		mi := ms.macroOf[v]
		ms.memFlat[ms.memOff[mi]] = v
		ms.memOff[mi]++
	}
	copy(ms.memOff[1:ms.n+1], ms.memOff[:ms.n])
	ms.memOff[0] = 0
	return ms
}

// members returns the node list of macro mi.
func (ms *macroSet) members(mi int) []int { return ms.memFlat[ms.memOff[mi]:ms.memOff[mi+1]] }

func fitsTogether(a, b *[ddg.NumClasses]int, cap [ddg.NumClasses]int) bool {
	for cl := range cap {
		if a[cl]+b[cl] > cap[cl] {
			return false
		}
	}
	return true
}

// mergeMacros folds macro b into macro a; b becomes dead (size 0). Every
// node is repointed by scanning macroOf — node counts are small, so the
// scan is cheaper than maintaining per-macro member lists.
func mergeMacros(macroOf []int, counts [][ddg.NumClasses]int, size []int, a, b int) {
	for v := range macroOf {
		if macroOf[v] == b {
			macroOf[v] = a
		}
	}
	for cl := range counts[a] {
		counts[a][cl] += counts[b][cl]
	}
	size[a] += size[b]
	size[b] = 0
	counts[b] = [ddg.NumClasses]int{}
}

// forceMerge merges the two smallest capacity-compatible macros; returns
// false when no pair fits (coarsening must stop).
func forceMerge(macroOf []int, counts [][ddg.NumClasses]int, size []int, cap [ddg.NumClasses]int, sc *Scratch) bool {
	live := sc.live[:0]
	for i := range size {
		if size[i] > 0 {
			live = append(live, i)
		}
	}
	sc.live = live
	// sort.Slice (not slices.SortFunc) deliberately: size ties must keep
	// the exact order the original implementation produced, so partitions
	// stay bit-identical.
	sort.Slice(live, func(i, j int) bool { return size[live[i]] < size[live[j]] })
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if fitsTogether(&counts[live[i]], &counts[live[j]], cap) {
				mergeMacros(macroOf, counts, size, live[i], live[j])
				return true
			}
		}
	}
	return false
}

// assignMacros places macro-nodes onto clusters: largest first, each to a
// cluster with spare capacity at the given ii, preferring connectivity to
// already-placed neighbors and per-class balance.
func assignMacros(g *ddg.Graph, m machine.Config, ii int, ms *macroSet, w []int, sc *Scratch) *Assignment {
	capacity := grown(sc.capacity, m.Clusters)
	sc.capacity = capacity
	for c := 0; c < m.Clusters; c++ {
		for cl := range capacity[c] {
			capacity[c][cl] = m.FUAt(c, ddg.Class(cl)) * ii
		}
	}
	a := &Assignment{Cluster: make([]int, g.NumNodes()), K: m.Clusters}
	order := grown(sc.order, ms.n)
	sc.order = order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		if ms.size[x] != ms.size[y] {
			return ms.size[y] - ms.size[x]
		}
		return x - y
	})

	clusterOf := grown(sc.clusterOf, ms.n)
	sc.clusterOf = clusterOf
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	loads := zeroed(sc.loads, m.Clusters)
	sc.loads = loads

	for _, mi := range order {
		bestC := 0
		bestKey := [3]int{1 << 30, 1 << 30, 1 << 30}
		for c := 0; c < m.Clusters; c++ {
			// Capacity overflow this placement would cause (op units).
			overflow := 0
			load := 0
			for cl := range loads[c] {
				after := loads[c][cl] + ms.counts[mi][cl]
				if ex := after - capacity[c][cl]; ex > 0 {
					overflow += ex
				}
				if fu := m.FUAt(c, ddg.Class(cl)); fu > 0 {
					inII := (after + fu - 1) / fu
					if inII > load {
						load = inII
					}
				}
			}
			// Connectivity to macros already in c.
			conn := 0
			for _, v := range ms.members(mi) {
				for _, eid := range g.Out(v) {
					e := &g.Edges[eid]
					if other := ms.macroOf[e.Dst]; other != mi && clusterOf[other] == c {
						conn += w[eid]
					}
				}
				for _, eid := range g.In(v) {
					e := &g.Edges[eid]
					if other := ms.macroOf[e.Src]; other != mi && clusterOf[other] == c {
						conn += w[eid]
					}
				}
			}
			// Fit first (never overflow a cluster when an alternative
			// exists), then connectivity, then balance; deterministic.
			key := [3]int{overflow, -conn, load*m.Clusters + c}
			if key[0] < bestKey[0] ||
				(key[0] == bestKey[0] && (key[1] < bestKey[1] ||
					(key[1] == bestKey[1] && key[2] < bestKey[2]))) {
				bestKey, bestC = key, c
			}
		}
		clusterOf[mi] = bestC
		for cl := range loads[bestC] {
			loads[bestC][cl] += ms.counts[mi][cl]
		}
		for _, v := range ms.members(mi) {
			a.Cluster[v] = bestC
		}
	}
	return a
}

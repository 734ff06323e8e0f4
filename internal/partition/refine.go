package partition

import (
	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// refine improves the assignment in place by greedy single-node moves
// (§2.3.1 step 2). A move is accepted when it strictly improves the score
// (inducedII, communications, weighted cut) lexicographically. Several
// passes run until a pass makes no move. It reports whether the result is a
// fixpoint: the final pass moved nothing (false means the pass budget ran
// out mid-improvement).
//
// Each node's candidate moves are scored without changing the state
// (best); only the winning move is applied. A pass that comes back round
// to the node that made the last move stops early: every node has since
// been evaluated against the current state and declined to move (the last
// mover itself sits at its own minimum), so the rest of the pass is a
// proven no-op and the result is the fixpoint the full pass would report.
func refine(g *ddg.Graph, m machine.Config, ii int, a *Assignment, w []int, sc *Scratch) bool {
	const maxPasses = 8
	st := newRefineState(g, m, a, w, ii, sc)
	last := -1 // the node that made the most recent move
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for v := range g.Nodes {
			if v == last {
				// last moved in an earlier pass and nothing has moved
				// since: a move in this pass would have made an earlier
				// node last.
				return true
			}
			if c := st.best(v); c != a.Cluster[v] {
				st.move(v, c)
				moved, last = true, v
			}
		}
		if !moved {
			return true
		}
	}
	return false
}

// score orders candidate partitions: first by how far any cluster's
// resource requirement overflows the current II target (an overfull cluster
// can never be scheduled at this II, no matter what the bus does), then by
// the II the partition induces (resources and bus), then by communication
// count, then by the weighted cut (a proxy for critical-path damage).
type score struct {
	resOverflow int
	inducedII   int
	coms        int
	wcut        int
}

func (s score) less(o score) bool {
	if s.resOverflow != o.resOverflow {
		return s.resOverflow < o.resOverflow
	}
	if s.inducedII != o.inducedII {
		return s.inducedII < o.inducedII
	}
	if s.coms != o.coms {
		return s.coms < o.coms
	}
	return s.wcut < o.wcut
}

// refineState maintains the score incrementally under node moves: the
// per-cluster class counts, resource IIs and total capacity overflow, the
// communication set and the weighted cut are all updated in O(degree·K)
// per move. best scores all of a node's candidate moves from deltas
// against this state without changing it. All buffers live in the Scratch
// arena.
type refineState struct {
	g *ddg.Graph
	m machine.Config
	a *Assignment
	w []int

	targetII int
	counts   []([ddg.NumClasses]int) // per cluster
	fu       []int                   // cached m.FUAt, [c*NumClasses + class]
	classII  []int                   // ceil(count/fu) per [c*NumClasses + class] (1<<20 when unservable)
	resII    []int                   // per-cluster resource II (mii.ClusterResIIAt)
	over     int                     // total per-class capacity overflow at targetII
	// consIn[v*K+c] counts data edges from v to consumers in cluster c.
	consIn []int32
	// comm[v] is 1 when v needs a communication.
	comm    []int8
	numComs int
	wcut    int

	// scoreMoves' per-node buffers: cand[c] is the score with v moved to
	// c, wTo[c] the weight of v's data edges to neighbours in cluster c,
	// dcom[c] the change in the communication count if v moves to c, and
	// mult[p] the number of data edges p→v (zero between calls).
	cand      []score
	wTo, dcom []int
	mult      []int32
}

func newRefineState(g *ddg.Graph, m machine.Config, a *Assignment, w []int, targetII int, sc *Scratch) *refineState {
	n := g.NumNodes()
	st := &sc.st
	*st = refineState{
		g: g, m: m, a: a, w: w,
		targetII: targetII,
		counts:   zeroed(sc.counts, a.K),
		fu:       grown(sc.fu, a.K*ddg.NumClasses),
		classII:  grown(sc.classII, a.K*ddg.NumClasses),
		resII:    grown(sc.resII, a.K),
		consIn:   zeroed(sc.consIn, n*a.K),
		comm:     grown(sc.comm, n),
		cand:     grown(sc.cand, a.K),
		wTo:      grown(sc.wTo, a.K),
		dcom:     grown(sc.dcom, a.K),
		mult:     zeroed(sc.mult, n),
	}
	sc.counts, sc.fu, sc.classII, sc.resII, sc.consIn, sc.comm =
		st.counts, st.fu, st.classII, st.resII, st.consIn, st.comm
	sc.cand, sc.wTo, sc.dcom, sc.mult = st.cand, st.wTo, st.dcom, st.mult
	for c := 0; c < a.K; c++ {
		for cl := 0; cl < ddg.NumClasses; cl++ {
			st.fu[c*ddg.NumClasses+cl] = m.FUAt(c, ddg.Class(cl))
		}
	}
	for v := range g.Nodes {
		st.counts[a.Cluster[v]][g.Nodes[v].Op.Class()]++
	}
	for c := 0; c < a.K; c++ {
		for cl, n := range st.counts[c] {
			st.classII[c*ddg.NumClasses+cl] = classCeil(n, st.fu[c*ddg.NumClasses+cl])
			st.over += excess(n, st.fu[c*ddg.NumClasses+cl]*st.targetII)
		}
		st.resII[c] = st.clusterResII(c)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != ddg.EdgeData {
			continue
		}
		st.consIn[e.Src*a.K+a.Cluster[e.Dst]]++
		if a.Cluster[e.Src] != a.Cluster[e.Dst] {
			st.wcut += w[i]
		}
	}
	for v := range g.Nodes {
		st.comm[v] = st.commBit(v)
		st.numComs += int(st.comm[v])
	}
	return st
}

// classCeil is one class's contribution to a cluster's resource II:
// ceil(n/fu), or a huge sentinel when the class is unservable there. The
// floor of 1 is applied by clusterResII, matching mii.ClusterResIIAt.
func classCeil(n, fu int) int {
	if fu == 0 {
		if n > 0 {
			return 1 << 20
		}
		return 0
	}
	return (n + fu - 1) / fu
}

// excess is how far n operations overflow a capacity of limit.
func excess(n, limit int) int {
	if n > limit {
		return n - limit
	}
	return 0
}

// clusterResII folds the cached per-class ceilings of one cluster: the same
// value as mii.ClusterResIIAt, without recomputing any division.
func (st *refineState) clusterResII(c int) int {
	res := 1
	for _, b := range st.classII[c*ddg.NumClasses : (c+1)*ddg.NumClasses] {
		if b > res {
			res = b
		}
	}
	return res
}

// resIIWith is clusterResII(c) with class cl's ceiling replaced by b.
func (st *refineState) resIIWith(c, cl, b int) int {
	res := max(1, b)
	for x, bx := range st.classII[c*ddg.NumClasses : (c+1)*ddg.NumClasses] {
		if x != cl && bx > res {
			res = bx
		}
	}
	return res
}

// bump adjusts counts[c][cl] by d, maintaining the overflow total and the
// cluster's resource II.
func (st *refineState) bump(c, cl, d int) {
	idx := c*ddg.NumClasses + cl
	fu := st.fu[idx]
	limit := fu * st.targetII
	n0 := st.counts[c][cl]
	n1 := n0 + d
	st.counts[c][cl] = n1
	st.over += excess(n1, limit) - excess(n0, limit)
	st.classII[idx] = classCeil(n1, fu)
	st.resII[c] = st.clusterResII(c)
}

func (st *refineState) commBit(v int) int8 {
	if st.g.Nodes[v].Op.IsStore() {
		return 0
	}
	home := st.a.Cluster[v]
	row := st.consIn[v*st.a.K : (v+1)*st.a.K]
	for c, n := range row {
		if c != home && n > 0 {
			return 1
		}
	}
	return 0
}

// move relocates v to cluster c, updating all incremental state.
func (st *refineState) move(v, c int) {
	old := st.a.Cluster[v]
	if old == c {
		return
	}
	k := st.a.K
	cl := int(st.g.Nodes[v].Op.Class())
	st.bump(old, cl, -1)
	st.bump(c, cl, +1)
	st.a.Cluster[v] = c

	// Cut and producer-comm updates for edges incident to v.
	for _, eid := range st.g.Out(v) {
		e := &st.g.Edges[eid]
		if e.Kind != ddg.EdgeData {
			continue
		}
		wasCross := old != st.a.Cluster[e.Dst]
		isCross := c != st.a.Cluster[e.Dst]
		if e.Src == e.Dst {
			wasCross, isCross = false, false
		}
		if wasCross != isCross {
			if isCross {
				st.wcut += st.w[eid]
			} else {
				st.wcut -= st.w[eid]
			}
		}
	}
	for _, eid := range st.g.In(v) {
		e := &st.g.Edges[eid]
		if e.Kind != ddg.EdgeData || e.Src == v {
			continue
		}
		p := e.Src
		pc := st.a.Cluster[p]
		st.consIn[p*k+old]--
		st.consIn[p*k+c]++
		wasCross := pc != old
		isCross := pc != c
		if wasCross != isCross {
			if isCross {
				st.wcut += st.w[eid]
			} else {
				st.wcut -= st.w[eid]
			}
		}
		st.updateComm(p)
	}
	// Self-loops: consIn[v] counts v's own consumers including itself.
	for _, eid := range st.g.Out(v) {
		e := &st.g.Edges[eid]
		if e.Kind == ddg.EdgeData && e.Dst == v {
			st.consIn[v*k+old]--
			st.consIn[v*k+c]++
		}
	}
	st.updateComm(v)
}

func (st *refineState) updateComm(v int) {
	nb := st.commBit(v)
	st.numComs += int(nb) - int(st.comm[v])
	st.comm[v] = nb
}

func (st *refineState) score() score {
	res := 1
	for c := 0; c < st.a.K; c++ {
		if st.resII[c] > res {
			res = st.resII[c]
		}
	}
	induced := res
	if b := st.m.MinBusII(st.numComs); b > induced {
		induced = b
	}
	return score{resOverflow: st.over, inducedII: induced, coms: st.numComs, wcut: st.wcut}
}

// best returns the cluster v should move to: the candidate whose move gives
// the strictly lowest score, the lowest such cluster on ties, or v's own
// cluster when no move improves on the current score.
func (st *refineState) best(v int) int {
	st.scoreMoves(v)
	bestC := st.a.Cluster[v]
	for c, s := range st.cand {
		if s.less(st.cand[bestC]) {
			bestC = c
		}
	}
	return bestC
}

// scoreMoves sets cand[c] to the score the state would have with v moved
// to cluster c (cand[v's cluster] is the current score), without changing
// the state: one sweep over v's data edges yields each candidate's change
// in weighted cut and communication count, and the resource terms change
// only in v's class on the two clusters involved.
func (st *refineState) scoreMoves(v int) {
	g, a, k := st.g, st.a, st.a.K
	cur := a.Cluster[v]
	wTo, dcom := st.wTo, st.dcom
	clear(wTo)
	clear(dcom)

	// Weighted cut: moving v from cur to c uncuts its edges to c and cuts
	// its edges to cur, so Δwcut(c) = wTo[cur] − wTo[c]. Self-loops never
	// cross.
	self := int32(0)
	for _, eid := range g.Out(v) {
		e := &g.Edges[eid]
		if e.Kind != ddg.EdgeData {
			continue
		}
		if e.Dst == v {
			self++
			continue
		}
		wTo[a.Cluster[e.Dst]] += st.w[eid]
	}
	for _, eid := range g.In(v) {
		e := &g.Edges[eid]
		if e.Kind != ddg.EdgeData || e.Src == v {
			continue
		}
		wTo[a.Cluster[e.Src]] += st.w[eid]
		st.mult[e.Src]++
	}

	// Producers: v carries mult[p] of p's consumer edges from cur to c. If
	// p keeps a consumer on a foreign cluster other than through v, it
	// communicates wherever v goes. Otherwise it communicates after the
	// move exactly when c ≠ hp, its own cluster: every target but hp gains
	// a communication when cur = hp, and only hp loses one when cur ≠ hp.
	for _, eid := range g.In(v) {
		p := g.Edges[eid].Src
		mp := st.mult[p]
		if mp == 0 {
			continue // not a data producer, or already counted
		}
		st.mult[p] = 0
		if g.Nodes[p].Op.IsStore() {
			continue
		}
		hp := a.Cluster[p]
		foreign := false
		for c, n := range st.consIn[p*k : (p+1)*k] {
			if c == cur {
				n -= mp
			}
			if c != hp && n > 0 {
				foreign = true
				break
			}
		}
		switch {
		case foreign:
		case cur == hp:
			for c := range dcom {
				if c != hp {
					dcom[c]++
				}
			}
		default:
			dcom[hp]--
		}
	}

	// v itself: after the move it communicates when a cluster other than c
	// holds one of its consumers other than v (self-loops travel with it).
	// used counts the clusters holding such a consumer, so that is
	// used−1 > 0 when c is one of them and used > 0 when it is not.
	if !g.Nodes[v].Op.IsStore() {
		row := st.consIn[v*k : (v+1)*k]
		used := 0 // clusters holding a consumer of v other than v
		for c, n := range row {
			if c == cur {
				n -= self
			}
			if n > 0 {
				used++
			}
		}
		was := int(st.comm[v])
		for c, n := range row {
			if c == cur {
				continue
			}
			if n > 0 {
				dcom[c] += b2i(used > 1) - was
			} else {
				dcom[c] += b2i(used > 0) - was
			}
		}
	}

	// Resources: only class cl on cur and on the target change.
	cl := int(g.Nodes[v].Op.Class())
	limit := st.fu[cur*ddg.NumClasses+cl] * st.targetII
	n0 := st.counts[cur][cl]
	overCur := st.over + excess(n0-1, limit) - excess(n0, limit)
	resCur := st.resIIWith(cur, cl, classCeil(n0-1, st.fu[cur*ddg.NumClasses+cl]))

	st.cand[cur] = st.score()
	for c := 0; c < k; c++ {
		if c == cur {
			continue
		}
		fu := st.fu[c*ddg.NumClasses+cl]
		n1 := st.counts[c][cl] + 1
		res := max(resCur, st.resIIWith(c, cl, classCeil(n1, fu)))
		for x, r := range st.resII {
			if x != cur && x != c && r > res {
				res = r
			}
		}
		coms := st.numComs + dcom[c]
		st.cand[c] = score{
			resOverflow: overCur + excess(n1, fu*st.targetII) - excess(n1-1, fu*st.targetII),
			inducedII:   max(res, st.m.MinBusII(coms)),
			coms:        coms,
			wcut:        st.wcut + wTo[cur] - wTo[c],
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

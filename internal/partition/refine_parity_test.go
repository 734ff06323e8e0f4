package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/workload"
)

// The read-only move-delta refinement (refine.go) and the map-free macro
// pair aggregation (coarsen.go) must produce exactly the partitions of the
// apply-and-revert refinement and the map-based aggregation they replaced.
// refineRef and coarsenRef keep those implementations as the reference;
// the tests below run both side by side and require identical macro sets,
// assignments and convergence flags — the acceptance bar for the
// optimization, in the pattern of pipeline/search_parity_test.go.

// refineRef is the reference refinement: every candidate move is scored by
// applying it to the incremental state, reading the score and reverting.
func refineRef(g *ddg.Graph, m machine.Config, ii int, a *Assignment, w []int, sc *Scratch) bool {
	const maxPasses = 8
	st := newRefineState(g, m, a, w, ii, sc)
	moved := false
	for pass := 0; pass < maxPasses; pass++ {
		moved = false
		for v := range g.Nodes {
			cur := a.Cluster[v]
			before := st.score()
			bestC, bestScore := cur, before
			for c := 0; c < a.K; c++ {
				if c == cur {
					continue
				}
				st.move(v, c)
				if s := st.score(); s.less(bestScore) {
					bestScore, bestC = s, c
				}
				st.move(v, cur)
			}
			if bestC != cur {
				st.move(v, bestC)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return !moved
}

// coarsenRef is the reference coarsening: inter-macro weights are summed in
// a map keyed by macro pair, and the pairs are sorted from map order.
func coarsenRef(g *ddg.Graph, m machine.Config, ii int, w []int, sc *Scratch) *macroSet {
	var cap [ddg.NumClasses]int
	for cl := range cap {
		for c := 0; c < m.Clusters; c++ {
			if x := m.FUAt(c, ddg.Class(cl)) * ii; x > cap[cl] {
				cap[cl] = x
			}
		}
	}
	n := g.NumNodes()
	macroOf := make([]int, n)
	counts := make([][ddg.NumClasses]int, n)
	size := make([]int, n)
	for v := range g.Nodes {
		macroOf[v] = v
		counts[v][g.Nodes[v].Op.Class()]++
		size[v] = 1
	}
	alive := n
	agg := make(map[[2]int]int)
	for alive > m.Clusters {
		clear(agg)
		for i := range g.Edges {
			e := &g.Edges[i]
			ma, mb := macroOf[e.Src], macroOf[e.Dst]
			if ma == mb {
				continue
			}
			if ma > mb {
				ma, mb = mb, ma
			}
			agg[[2]int{ma, mb}] += w[i]
		}
		var pairs []macroPair
		for k, ww := range agg {
			pairs = append(pairs, macroPair{a: k[0], b: k[1], w: ww})
		}
		slices.SortFunc(pairs, func(x, y macroPair) int {
			if x.w != y.w {
				return y.w - x.w
			}
			if x.a != y.a {
				return x.a - y.a
			}
			return x.b - y.b
		})
		matched := make([]bool, n)
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

// initialRef is InitialScratch over the reference coarsening and
// refinement; it returns the assignment and the convergence flag.
func initialRef(g *ddg.Graph, m machine.Config, ii int, sc *Scratch) (*Assignment, bool) {
	w := edgeWeights(g, m, ii, sc)
	a := assignMacros(g, m, ii, coarsenRef(g, m, ii, w, sc), w, sc)
	return a, refineRef(g, m, ii, a, w, sc)
}

// refineScratchRef is RefineScratch over the reference refinement.
func refineScratchRef(g *ddg.Graph, m machine.Config, ii int, a *Assignment, sc *Scratch) (*Assignment, bool) {
	na := a.Clone()
	w := edgeWeights(g, m, ii, sc)
	return na, refineRef(g, m, ii, na, w, sc)
}

// parityMachines is every paper configuration plus two low-register
// homogeneous machines and a heterogeneous one whose first two clusters
// each lack a functional-unit class.
func parityMachines(tb testing.TB) []machine.Config {
	tb.Helper()
	hetero, err := machine.NewHetero(1, 2, 16, [][ddg.NumClasses]int{
		{2, 0, 1},
		{0, 2, 1},
		{1, 1, 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return append(machine.PaperConfigs(), machine.MustParse("4c1b2l16r"), machine.MustParse("2c1b4l32r"), hetero)
}

// parityChecker runs production and reference partitioning side by side
// on warm arenas, as the II search does.
type parityChecker struct {
	sc, scRef *Scratch
}

func newParityChecker() *parityChecker {
	return &parityChecker{sc: NewScratch(), scRef: NewScratch()}
}

// check compares the two implementations on g at MII..MII+3: the macro sets
// coarsening produces, InitialScratch from the assignMacros start,
// RefineScratch of the previous interval's partition (the II search's own
// sequence) and RefineScratch of a randomly perturbed partition.
func (pc *parityChecker) check(tb testing.TB, g *ddg.Graph, m machine.Config, rng *rand.Rand, iiOffsets []int) {
	tb.Helper()
	base := mii.MII(g, m)
	var prev *Assignment
	for _, off := range iiOffsets {
		ii := base + off
		label := fmt.Sprintf("%s on %s at II %d", g.Name, m.Name, ii)
		pc.checkCoarsen(tb, label, g, m, ii)

		got := InitialScratch(g, m, ii, pc.sc)
		want, wantConv := initialRef(g, m, ii, pc.scRef)
		requireSamePartition(tb, label+" (initial)", got, want, pc.sc.Converged(), wantConv)

		chain := got
		if prev != nil {
			chain = RefineScratch(g, m, ii, prev, pc.sc)
			want, wantConv := refineScratchRef(g, m, ii, prev, pc.scRef)
			requireSamePartition(tb, label+" (refined from II-1)", chain, want, pc.sc.Converged(), wantConv)
		}
		prev = chain

		perturbed := got.Clone()
		for k := 0; k <= g.NumNodes()/4; k++ {
			perturbed.Cluster[rng.Intn(g.NumNodes())] = rng.Intn(perturbed.K)
		}
		got = RefineScratch(g, m, ii, perturbed, pc.sc)
		want, wantConv = refineScratchRef(g, m, ii, perturbed, pc.scRef)
		requireSamePartition(tb, label+" (perturbed start)", got, want, pc.sc.Converged(), wantConv)
	}
}

func (pc *parityChecker) checkCoarsen(tb testing.TB, label string, g *ddg.Graph, m machine.Config, ii int) {
	tb.Helper()
	ms := coarsen(g, m, ii, edgeWeights(g, m, ii, pc.sc), pc.sc)
	ref := coarsenRef(g, m, ii, edgeWeights(g, m, ii, pc.scRef), pc.scRef)
	n := g.NumNodes()
	if ms.n != ref.n ||
		!slices.Equal(ms.macroOf[:n], ref.macroOf[:n]) ||
		!slices.Equal(ms.counts, ref.counts) ||
		!slices.Equal(ms.size, ref.size) ||
		!slices.Equal(ms.memFlat[:n], ref.memFlat[:n]) ||
		!slices.Equal(ms.memOff[:ms.n+1], ref.memOff[:ref.n+1]) {
		tb.Fatalf("%s: macro sets differ:\n  got:  %d macros %v\n  want: %d macros %v",
			label, ms.n, ms.macroOf[:n], ref.n, ref.macroOf[:n])
	}
}

func requireSamePartition(tb testing.TB, label string, got, want *Assignment, gotConv, wantConv bool) {
	tb.Helper()
	if got.K != want.K || !slices.Equal(got.Cluster, want.Cluster) {
		tb.Fatalf("%s: assignments differ:\n  got:  %v\n  want: %v", label, got.Cluster, want.Cluster)
	}
	if gotConv != wantConv {
		tb.Fatalf("%s: converged = %v, reference %v", label, gotConv, wantConv)
	}
}

// TestRefineParityOnSuite is the suite-wide golden comparison: every
// SPECfp95 loop on every parity machine at MII..MII+3. Short mode samples
// every seventh loop.
func TestRefineParityOnSuite(t *testing.T) {
	loops := workload.SPECfp95()
	stride := 1
	if testing.Short() {
		stride = 7
	}
	rng := rand.New(rand.NewSource(20261017))
	pc := newParityChecker()
	for _, m := range parityMachines(t) {
		for i := 0; i < len(loops); i += stride {
			pc.check(t, loops[i].Graph, m, rng, []int{0, 1, 2, 3})
		}
	}
}

// TestRefineParityOnCorpus covers the generated corpus families, whose
// shapes (chains, trees, SCC-heavy kernels) the suite samples less.
func TestRefineParityOnCorpus(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	sp := corpus.DefaultSpec()
	machines := parityMachines(t)
	rng := rand.New(rand.NewSource(7))
	pc := newParityChecker()
	for i := 0; i < n; i++ {
		pc.check(t, sp.Loop(i), machines[i%len(machines)], rng, []int{0, 1, 2, 3})
	}
}

// FuzzRefineParity explores corpus loops, machines and intervals. The seed
// entries below replay on every plain `go test` run.
func FuzzRefineParity(f *testing.F) {
	f.Add(int64(1), 0, uint8(0), uint8(0))
	f.Add(int64(1), 17, uint8(2), uint8(1))
	f.Add(int64(42), 7, uint8(6), uint8(3))
	f.Add(int64(7), 3, uint8(7), uint8(2))
	f.Add(int64(9), 11, uint8(8), uint8(0))
	f.Add(int64(2026), 123, uint8(4), uint8(1))
	machines := parityMachines(f)
	f.Fuzz(func(t *testing.T, seed int64, index int, machineIdx, iiOffset uint8) {
		if index < 0 || index > 1<<20 {
			t.Skip()
		}
		sp := corpus.DefaultSpec()
		sp.Seed = seed
		g := sp.Loop(index)
		m := machines[int(machineIdx)%len(machines)]
		rng := rand.New(rand.NewSource(seed ^ int64(index)))
		newParityChecker().check(t, g, m, rng, []int{int(iiOffset % 4)})
	})
}

package partition

import (
	"testing"

	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/workload"
)

// TestPartitionWarmAllocs pins the partitioner's steady-state allocations:
// on a warm Scratch every work buffer (refinement state, move deltas,
// coarsening buckets and slots, macro pairs) is reused. InitialScratch
// allocates only the returned Assignment (struct and cluster slice) and,
// on this loop, forceMerge's sort.Slice swapper and closure; RefineScratch
// allocates only the cloned Assignment.
func TestPartitionWarmAllocs(t *testing.T) {
	var loop *workload.Loop
	for _, l := range workload.LoopsFor("tomcatv") {
		if l.Graph.Name == "tomcatv_loop006" {
			loop = l
		}
	}
	if loop == nil {
		t.Fatal("tomcatv_loop006 not in the suite")
	}
	g := loop.Graph
	m := machine.MustParse("4c2b2l64r")
	ii := mii.MII(g, m)
	sc := NewScratch()
	a := InitialScratch(g, m, ii, sc)
	RefineScratch(g, m, ii+1, a, sc)

	if n := testing.AllocsPerRun(50, func() { InitialScratch(g, m, ii, sc) }); n > 4 {
		t.Errorf("warm InitialScratch: %.1f allocs, want ≤ 4", n)
	}
	if n := testing.AllocsPerRun(50, func() { RefineScratch(g, m, ii+1, a, sc) }); n > 2 {
		t.Errorf("warm RefineScratch: %.1f allocs, want ≤ 2", n)
	}
}

// BenchmarkInitialPartition prices the partition layer alone: every suite
// loop on every paper configuration at its MII, through one warm Scratch
// as a driver worker runs it.
func BenchmarkInitialPartition(b *testing.B) {
	type job struct {
		m  machine.Config
		ii int
		l  *workload.Loop
	}
	var jobs []job
	for _, m := range machine.PaperConfigs() {
		for _, l := range workload.SPECfp95() {
			jobs = append(jobs, job{m, mii.MII(l.Graph, m), l})
		}
	}
	sc := NewScratch()
	for _, j := range jobs {
		InitialScratch(j.l.Graph, j.m, j.ii, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			InitialScratch(j.l.Graph, j.m, j.ii, sc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(jobs)), "us/partition")
}

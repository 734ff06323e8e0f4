package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"clusched"
	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// sinkU64 keeps the results of timed calls whose value is not otherwise
// used, so the calls cannot be optimised away.
var sinkU64 atomic.Uint64

// engineCache reads a local engine's cumulative cache counters.
func engineCache(b *clusched.Compiler) func() cacheCounts {
	return func() cacheCounts {
		cs := b.CacheStats()
		return cacheCounts{hits: cs.Hits, semantic: cs.SemanticHits, misses: cs.Misses}
	}
}

// traceLocal compiles every job of the pass through pipeline.Run with the
// pass chain wrapped in timing passes, on as many goroutines as recorders.
// Only jobs the untraced engine compiled itself are compared: a job it
// served from its cache was never run through the passes there.
func traceLocal(p *passInput, ref []outcome, recs []*recorder) ([]outcome, []bool, error) {
	outs := make([]outcome, len(p.jobs))
	compare := make([]bool, len(p.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chain := timedChain(rec)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.jobs) {
					return
				}
				j := &p.jobs[i]
				rec.job = j.index
				rec.jobs++
				rec.begin(layerShapeHash)
				sinkU64.Add(j.Graph.ShapeHash())
				rec.end()
				res, err := compileTimed(rec, chain, j.Graph, j.Machine, j.Opts)
				outs[i] = outcome{res: res, err: err}
				compare[i] = !ref[i].cacheHit
			}
		}()
	}
	wg.Wait()
	return outs, compare, nil
}

// compileTimed times the II lower bound on its own, then the full search
// over the timed chain. The search computes its own bound again; that
// share stays in the pipeline's self time.
func compileTimed(rec *recorder, chain []pipeline.Pass, g *ddg.Graph, m machine.Config, opts pipeline.Options) (*pipeline.Result, error) {
	rec.begin(layerMII)
	sinkU64.Add(uint64(mii.MII(g, m)))
	rec.end()
	rec.begin(layerPipeline)
	res, err := pipeline.Run(g, m, opts, chain)
	d := rec.end()
	rec.pipeTime += d
	if err != nil {
		rec.failTime += d
	} else {
		rec.okJobs++
	}
	return res, err
}

// suiteCold is the paper's own evaluation traffic: the pinned SPECfp95
// suite on the six paper machines, baseline and replication, one batch per
// (program, machine, mode), one batch in flight, on a fresh default engine
// per pass. The suite is pinned, so the seed does not change its inputs.
type suiteCold struct {
	jobs    []job
	batches [][2]int
}

func setupSuiteCold(cfg config) (instance, error) {
	profiles := workload.Profiles()
	machines := machine.PaperConfigs()
	if cfg.tiny {
		profiles, machines = profiles[:2], machines[:2]
	}
	loops := make([][]*workload.Loop, len(profiles))
	for i, p := range profiles {
		loops[i] = workload.GenerateBench(p)
	}
	s := &suiteCold{}
	for _, m := range machines {
		for _, replicate := range []bool{false, true} {
			mode := "baseline"
			if replicate {
				mode = "replication"
			}
			for pi := range profiles {
				lo := len(s.jobs)
				for _, l := range loops[pi] {
					s.jobs = append(s.jobs, job{
						CompileJob: clusched.CompileJob{Graph: l.Graph, Machine: m, Opts: pipeline.Options{Replicate: replicate}},
						index:      len(s.jobs),
						name:       fmt.Sprintf("%s %s on %s", l.Graph.Name, mode, m.Name),
						origin:     -1,
					})
				}
				s.batches = append(s.batches, [2]int{lo, len(s.jobs)})
			}
		}
	}
	return s, nil
}

func (s *suiteCold) prepare(int) (*passInput, error) {
	b := clusched.NewLocal()
	return newPass(s.jobs, s.batches, b, engineCache(b)), nil
}

func (s *suiteCold) tracePass(p *passInput, ref []outcome, recs []*recorder) ([]outcome, []bool, error) {
	return traceLocal(p, ref, recs)
}

func (s *suiteCold) repeatable() bool { return true }
func (s *suiteCold) close()           {}

// corpusHard is interactive compile traffic over a generated corpus of
// hard loops: chain, tree and cyclic families of 32-96 operations with
// high register pressure and twice the default memory-ordering edges, on
// 4c1b2l64r with replication. Two closed-loop clients each compile one job
// at a time on one shared default engine. Pass n covers the next chunk of
// the corpus stream, so no loop is sent twice, and gets a fresh engine: the
// engine's cache would otherwise hold every result of the run (no loop
// repeats, so it never serves one), and the run's memory would grow with
// its length.
type corpusHard struct {
	spec  corpus.Spec
	m     machine.Config
	opts  pipeline.Options
	warm  int
	chunk int
	first []*ddg.Graph
}

func corpusHardSpec(seed int64) corpus.Spec {
	return corpus.Spec{
		N:        1 << 30,
		Seed:     seed,
		Size:     corpus.IntRange{Lo: 32, Hi: 96},
		Shapes:   corpus.ShapeMix{corpus.ShapeChain: 1, corpus.ShapeTree: 1, corpus.ShapeCyclic: 1},
		MemEdges: 0.3,
		Pressure: 0.5,
	}
}

func setupCorpusHard(cfg config) (instance, error) {
	c := &corpusHard{
		spec:  corpusHardSpec(cfg.seed),
		m:     machine.MustParse("4c1b2l64r"),
		opts:  pipeline.Options{Replicate: true, VerifySchedules: true},
		warm:  256,
		chunk: 2048,
	}
	if cfg.tiny {
		c.warm, c.chunk = 8, 24
	}
	c.first = c.generate(c.span(1))
	return c, nil
}

// span returns pass n's [lo, hi) range of corpus indices. The timed
// passes cover the stream from index 0; the warm-up pass 0 compiles its
// first loops once more on an engine of its own.
func (c *corpusHard) span(n int) (int, int) {
	if n == 0 {
		return 0, c.warm
	}
	lo := (n - 1) * c.chunk
	return lo, lo + c.chunk
}

// generate builds corpus loops [lo, hi).
func (c *corpusHard) generate(lo, hi int) []*ddg.Graph {
	gs := make([]*ddg.Graph, hi-lo)
	for i := range gs {
		gs[i] = c.spec.Loop(lo + i)
	}
	return gs
}

func (c *corpusHard) prepare(n int) (*passInput, error) {
	lo, hi := c.span(n)
	var gs []*ddg.Graph
	if n == 1 && c.first != nil {
		gs, c.first = c.first, nil
	} else {
		gs = c.generate(lo, hi)
	}
	jobs := make([]job, len(gs))
	for i, g := range gs {
		jobs[i] = job{
			CompileJob: clusched.CompileJob{Graph: g, Machine: c.m, Opts: c.opts},
			index:      lo + i,
			name: fmt.Sprintf("corpus seed %d loop %d: %s, %d ops, size 32-96, shapes chain/tree/cyclic, mem 0.3, pressure 0.5, on %s",
				c.spec.Seed, lo+i, g.Name, g.NumNodes(), c.m.Name),
			origin: -1,
		}
	}
	b := clusched.NewLocal()
	return newPass(jobs, nil, b, engineCache(b)), nil
}

func (c *corpusHard) tracePass(p *passInput, ref []outcome, recs []*recorder) ([]outcome, []bool, error) {
	return traceLocal(p, ref, recs)
}

func (c *corpusHard) repeatable() bool { return false }
func (c *corpusHard) close()           {}

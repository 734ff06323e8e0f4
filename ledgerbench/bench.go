package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clusched"
	"clusched/internal/pipeline"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 7

// clients is the number of closed-loop client goroutines of a unary
// workload, and the number of traced goroutines of a local one.
const clients = 2

// job is one compilation a workload sends, with its replay coordinates.
type job struct {
	clusched.CompileJob
	// index is the job's position in the run's input stream (for
	// corpus-hard, the corpus loop index); name spells out the rest.
	index int
	name  string
	// origin is, for a served-mixed clone or exact repeat, the position in
	// the pass of the cold presentation it derives from; -1 otherwise.
	origin int
	clone  bool
}

// repeat reports whether the job is an exact repeat of an earlier one.
func (j *job) repeat() bool { return j.origin >= 0 && !j.clone }

// outcome is what the backend returned for one job.
type outcome struct {
	res      *pipeline.Result
	err      error
	cacheHit bool
}

// cacheCounts are the engine's cumulative cache counters and the
// service's rejections.
type cacheCounts struct {
	hits, semantic, misses, rejected uint64
}

func (c cacheCounts) minus(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.semantic - o.semantic, c.misses - o.misses, c.rejected - o.rejected}
}

// passInput is one pass of a workload: its jobs and the backend that
// serves them.
type passInput struct {
	jobs  []job
	cjobs []clusched.CompileJob
	// batches are the [lo, hi) job ranges a batch workload streams, one
	// batch in flight; nil for a unary workload, whose clients each send
	// one job at a time.
	batches [][2]int
	backend clusched.Backend
	cache   func() cacheCounts
}

func newPass(jobs []job, batches [][2]int, b clusched.Backend, cache func() cacheCounts) *passInput {
	p := &passInput{jobs: jobs, batches: batches, backend: b, cache: cache}
	p.cjobs = make([]clusched.CompileJob, len(jobs))
	for i := range jobs {
		p.cjobs[i] = jobs[i].CompileJob
	}
	return p
}

// instance is a set-up workload.
type instance interface {
	// prepare builds pass n's inputs and backend outside the timed region.
	// Pass 0 is the untimed warm-up. Calling it twice for one n yields the
	// same inputs on a fresh backend.
	prepare(n int) (*passInput, error)
	// tracePass runs the pass with every layer timed from outside and
	// returns, per job, the result the traced path computed and whether it
	// must equal the untraced pass's.
	tracePass(p *passInput, ref []outcome, recs []*recorder) (outs []outcome, compare []bool, err error)
	// repeatable reports whether every pass has the same inputs, so that
	// their schedule quality must agree exactly.
	repeatable() bool
	close()
}

// traffic names a workload and how to set it up.
type traffic struct {
	setup func(cfg config) (instance, error)
	// threads is the number of goroutines its traced passes run on.
	threads int
	// uncompared says which traced results are not compared with the
	// untraced pass's, and why.
	uncompared string
}

const localUncompared = "the engine served them from its cache, so it never ran the passes on them"

var workloads = map[string]traffic{
	"suite-cold":  {setup: setupSuiteCold, threads: clients, uncompared: localUncompared},
	"corpus-hard": {setup: setupCorpusHard, threads: clients, uncompared: localUncompared},
	"served-mixed": {setup: setupServedMixed, threads: 1,
		uncompared: "each is compared with the same traced pass's served result instead, since which isomorphic loop the server compiles first varies"},
}

// passResult is one untraced pass's measurement.
type passResult struct {
	outs                    []outcome
	wall                    time.Duration
	alloc                   uint64
	jobMS, batchMS, firstMS sample
	cache                   cacheCounts
}

// runPass sends the pass's jobs through its backend and times it.
func runPass(p *passInput) passResult {
	ctx := context.Background()
	r := passResult{outs: make([]outcome, len(p.jobs))}
	c0 := p.cache()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if p.batches != nil {
		for _, b := range p.batches {
			t0 := time.Now()
			first := true
			for i, o := range p.backend.Stream(ctx, p.cjobs[b[0]:b[1]]) {
				at := ms(time.Since(t0))
				if first {
					r.firstMS = append(r.firstMS, at)
					first = false
				}
				r.jobMS = append(r.jobMS, at)
				if i >= 0 && i < b[1]-b[0] {
					r.outs[b[0]+i] = outcome{res: o.Result, err: o.Err, cacheHit: o.CacheHit}
				}
			}
			r.batchMS = append(r.batchMS, ms(time.Since(t0)))
		}
	} else {
		var next atomic.Int64
		lat := make([]sample, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(p.jobs) {
						return
					}
					t0 := time.Now()
					res, err := p.backend.Compile(ctx, p.cjobs[i])
					lat[c] = append(lat[c], ms(time.Since(t0)))
					r.outs[i] = outcome{res: res, err: err}
				}
			}()
		}
		wg.Wait()
		for _, l := range lat {
			r.jobMS = append(r.jobMS, l...)
		}
		// A unary call is a batch of one: its first outcome is its outcome.
		r.batchMS, r.firstMS = r.jobMS, r.jobMS
	}
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.cache = p.cache().minus(c0)
	return r
}

// items pairs a pass's successful outcomes with their jobs for checking.
func items(p *passInput, outs []outcome) []item {
	its := make([]item, 0, len(outs))
	for i, o := range outs {
		if o.err == nil {
			its = append(its, item{j: &p.jobs[i], res: o.res})
		}
	}
	return its
}

// quality sums II and MII over a pass's successful outcomes.
type quality struct{ ii, mii, failed int }

func qualityOf(outs []outcome) quality {
	var q quality
	for _, o := range outs {
		if o.err != nil || o.res == nil {
			q.failed++
			continue
		}
		q.ii += o.res.II
		q.mii += o.res.MII
	}
	return q
}

// setupRepeated sets the workload up setupRepeats times (once in tiny
// mode) and keeps the last instance.
func setupRepeated(w traffic, cfg config) (instance, sample, error) {
	n := setupRepeats
	if cfg.tiny {
		n = 1
	}
	var times sample
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// warmUp runs and checks the untimed pass 0, so that lazily grown pools
// and the heap reach their steady size before anything is timed.
func warmUp(inst instance, chk *checker) error {
	p, err := inst.prepare(0)
	if err != nil {
		return err
	}
	r := runPass(p)
	return chk.check(items(p, r.outs))
}

// endToEnd measures the workload's end-to-end metrics with tracing off.
func endToEnd(w traffic, cfg config, log io.Writer) (*report, error) {
	inst, setupTimes, err := setupRepeated(w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	chk := newChecker(cfg)
	if err := warmUp(inst, chk); err != nil {
		return &report{Correct: false, Metrics: map[string]metric{}}, err
	}
	var (
		timed                   time.Duration
		jobs, passes            int
		errored, regBound       int
		failed                  int
		q                       quality
		jobMS, batchMS, firstMS perPass
		rates, allocKB          sample
		firstQ                  quality
	)
	for n := 1; timed.Seconds() < cfg.seconds; n++ {
		p, err := inst.prepare(n)
		if err != nil {
			return nil, err
		}
		// Start every pass from a collected heap, so the garbage of the
		// previous pass and of its checks is not charged to this one.
		runtime.GC()
		r := runPass(p)
		timed += r.wall
		rates = append(rates, float64(len(p.jobs))/r.wall.Seconds())
		allocKB = append(allocKB, float64(r.alloc)/1024/float64(len(p.jobs)))
		passes++
		jobs += len(p.jobs)
		jobMS = append(jobMS, r.jobMS)
		batchMS = append(batchMS, r.batchMS)
		firstMS = append(firstMS, r.firstMS)
		pq := qualityOf(r.outs)
		rb, pf := chk.failures(p, r.outs)
		regBound += rb
		failed += pf
		errored += pq.failed
		q.ii, q.mii = q.ii+pq.ii, q.mii+pq.mii
		if n == 1 {
			firstQ = pq
		} else if inst.repeatable() && pq != firstQ {
			fmt.Fprintf(log, "finding: %s pass %d differs from pass 1 in schedule quality: sum II %d vs %d, sum MII %d vs %d, failures %d vs %d\n",
				cfg.workload, n, pq.ii, firstQ.ii, pq.mii, firstQ.mii, pq.failed, firstQ.failed)
		}
		runtime.GC()
		if err := chk.check(items(p, r.outs)); err != nil {
			return &report{Correct: false, Attempted: jobs, Failed: failed, Metrics: map[string]metric{}}, err
		}
	}
	fmt.Fprintf(log, "timed %.3fs over %d passes, %d jobs, %d errors (%d register-bound give-ups, %d failed), %d distinct schedules simulated\n",
		timed.Seconds(), passes, jobs, errored, regBound, failed, chk.checked)
	fmt.Fprintf(log, "pass rates (1/s): %.0f; all jobs over all timed seconds: %.1f/s\n", rates, float64(jobs)/timed.Seconds())

	// Allocation and latency percentiles are medians over the timed passes
	// (see perPass): the host's speed drifts from one second to the next,
	// and a median ignores the passes it slowed. The rate is every timed
	// job over every timed second instead: a corpus-hard pass's rate swings
	// with how many slow register-bound give-ups it happens to hold, and
	// only the whole run averages them.
	m := newMetricSet(log)
	m.put("setup_s", median(setupTimes), "s", len(setupTimes))
	m.put("loops_per_s", float64(jobs)/timed.Seconds(), "1/s", jobs)
	m.put("batch_ms_p50", batchMS.quantile(0.5), "ms", batchMS.n())
	m.put("batch_ms_p90", batchMS.quantile(0.9), "ms", batchMS.n())
	m.put("first_outcome_ms_p50", firstMS.quantile(0.5), "ms", firstMS.n())
	m.put("job_ms_p50", jobMS.quantile(0.5), "ms", jobMS.n())
	m.put("job_ms_p99", jobMS.quantile(0.99), "ms", jobMS.n())
	m.put("ok_frac", float64(jobs-errored)/float64(jobs), "ratio", 0)
	fmt.Fprintf(log, "fail_frac %.6f (%d of %d)\n", float64(errored)/float64(jobs), errored, jobs)
	m.put("ii_over_mii", float64(q.ii)/float64(q.mii), "ratio", jobs-errored)
	m.put("alloc_kb_per_loop", median(allocKB), "KiB", len(allocKB))
	m.put("peak_rss_mb", peakRSSMB(), "MiB", 0)
	return &report{Correct: true, Attempted: jobs, Failed: failed, Metrics: m.m}, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

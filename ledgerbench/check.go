package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"

	"clusched/internal/corpus/validate"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/vliwsim"
)

// checkWorkers bounds the goroutines that check outputs between timed
// passes; the host the benchmark is sized for has two CPUs.
const checkWorkers = 2

// checker proves every returned schedule outside the timed region:
// sched.Verify (dependences and resources) and vliwsim.Check (store traces
// equal to the reference execution, completion cycle as modelled, and
// measured cycles per iteration equal to the claimed II). Both are pure
// functions of the loop, machine, options, placement and issue times, so a
// schedule identical in all of those to one already proven is proven too:
// the checker remembers proven schedules by that identity and does not
// re-simulate a deterministic pass's repeats.
type checker struct {
	workload string
	seed     int64
	mu       sync.Mutex
	proven   map[uint64]bool
	checked  int
	// regBound remembers, per job identity, whether a give-up was shown
	// to be register-bound (see failures).
	regBound map[uint64]bool
}

func newChecker(cfg config) *checker {
	return &checker{workload: cfg.workload, seed: cfg.seed, proven: map[uint64]bool{}, regBound: map[uint64]bool{}}
}

// item is one outcome to check, with the job that produced it.
type item struct {
	j   *job
	res *pipeline.Result
}

// scheduleKey is the identity the checks depend on.
func scheduleKey(j *job, r *pipeline.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%+v|%v|%v|%d|%d|%d|%v|%v|%v", r.Loop.Fingerprint(), r.Machine,
		j.Opts.ZeroBusLatency, j.Opts.IgnoreRegisterPressure, r.II, r.Length, r.SC,
		r.Placement.Home, r.Placement.Replicas, r.Schedule.Time)
	return h.Sum64()
}

// check proves every item and returns an error naming each failed job by
// (workload, seed, index).
func (c *checker) check(items []item) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fails []string
		next  = make(chan item)
	)
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				if err := c.checkOne(it); err != nil {
					mu.Lock()
					fails = append(fails, fmt.Sprintf("workload=%s seed=%d index=%d (%s): %v",
						c.workload, c.seed, it.j.index, it.j.name, err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
	if len(fails) == 0 {
		return nil
	}
	sort.Strings(fails)
	return fmt.Errorf("%d output check(s) failed:\n  %s", len(fails), strings.Join(fails, "\n  "))
}

func (c *checker) checkOne(it item) error {
	r := it.res
	if r == nil || r.Schedule == nil || r.Placement == nil {
		return fmt.Errorf("result carries no schedule or placement")
	}
	if r.II != r.Schedule.II || r.II < r.MII {
		return fmt.Errorf("result II %d, schedule II %d, MII %d", r.II, r.Schedule.II, r.MII)
	}
	key := scheduleKey(it.j, r)
	c.mu.Lock()
	done := c.proven[key]
	c.mu.Unlock()
	if done {
		return nil
	}
	if err := sched.Verify(r.Schedule); err != nil {
		return err
	}
	if err := vliwsim.Check(r.Schedule, validate.DefaultIters); err != nil {
		return err
	}
	c.mu.Lock()
	c.proven[key] = true
	c.checked++
	c.mu.Unlock()
	return nil
}

// giveUpText marks the II search's verdict when it ends without a schedule.
const giveUpText = "does not schedule on"

// failures splits a pass's error outcomes into register-bound give-ups and
// failed operations. A give-up is register-bound when the same job with
// the register-file check off schedules, and that schedule passes
// sched.Verify and vliwsim.Check: the loop is schedulable and only the
// register check made the search give up. That is the program's known
// defect, not a broken operation; the workloads keep such loops and price
// them in ok_frac and pipeline.failed_job_time_share. Every other error
// is a failed operation. Run outside the timed region.
func (c *checker) failures(p *passInput, outs []outcome) (regBound, failed int) {
	for i, o := range outs {
		if o.err == nil && o.res != nil {
			continue
		}
		if c.registerBound(&p.jobs[i], o.err) {
			regBound++
		} else {
			failed++
		}
	}
	return regBound, failed
}

func (c *checker) registerBound(j *job, err error) bool {
	if err == nil || !strings.Contains(err.Error(), giveUpText) {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%+v|%+v", j.Graph.Fingerprint(), j.Machine, j.Opts)
	key := h.Sum64()
	if known, ok := c.regBound[key]; ok {
		return known
	}
	relaxed := j.Opts
	relaxed.IgnoreRegisterPressure = true
	r, rerr := pipeline.Run(j.Graph, j.Machine, relaxed, pipeline.Chain())
	ok := rerr == nil && r.Schedule != nil && sched.Verify(r.Schedule) == nil &&
		vliwsim.Check(r.Schedule, validate.DefaultIters) == nil
	c.regBound[key] = ok
	return ok
}

// sameSchedule reports how two results of one job differ in II, issue
// times or placement; nil when they are identical.
func sameSchedule(a, b *pipeline.Result) error {
	switch {
	case a == nil || b == nil:
		if a != b {
			return fmt.Errorf("one side has no result")
		}
		return nil
	case a.II != b.II:
		return fmt.Errorf("II %d vs %d", a.II, b.II)
	case !slices.Equal(a.Schedule.Time, b.Schedule.Time):
		return fmt.Errorf("issue times differ at II %d", a.II)
	case !slices.Equal(a.Placement.Home, b.Placement.Home) || !slices.Equal(a.Placement.Replicas, b.Placement.Replicas):
		return fmt.Errorf("placements differ at II %d", a.II)
	}
	return nil
}

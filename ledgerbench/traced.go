package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// spanFileLimit caps the spans kept for the span file; the per-layer
// metrics aggregate every span regardless.
const spanFileLimit = 50_000

// traced alternates untraced reference passes with traced passes over the
// same inputs until --seconds of both have run, checks that the traced
// path computed the same schedules, and reports per-layer metrics.
func traced(w traffic, cfg config, h host, log io.Writer) (*report, error) {
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	chk := newChecker(cfg)
	var (
		untraced, tracedWall time.Duration
		jobs, failed, passes int
		compared, skipped    int
		cache                cacheCounts
	)
	// failure reports a failed check with what was attempted so far.
	failure := func(err error) (*report, error) {
		return &report{Attempted: jobs, Failed: failed, Metrics: map[string]metric{}}, err
	}
	if err := warmUp(inst, chk); err != nil {
		return failure(err)
	}
	sink := newSpanSink(spanFileLimit)
	recs := make([]*recorder, w.threads)
	for i := range recs {
		recs[i] = newRecorder(sink, i+1)
	}
	for n := 1; (untraced + tracedWall).Seconds() < cfg.seconds; n++ {
		p, err := inst.prepare(n)
		if err != nil {
			return nil, err
		}
		ref := runPass(p)
		untraced += ref.wall
		cache.hits += ref.cache.hits
		cache.semantic += ref.cache.semantic
		cache.misses += ref.cache.misses
		cache.rejected += ref.cache.rejected
		jobs += len(p.jobs)
		_, pf := chk.failures(p, ref.outs)
		failed += pf
		passes++
		if err := chk.check(items(p, ref.outs)); err != nil {
			return failure(err)
		}

		tp, err := inst.prepare(n)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		outs, compare, err := inst.tracePass(tp, ref.outs, recs)
		tracedWall += time.Since(t0)
		for _, r := range recs {
			r.flush()
		}
		if err != nil {
			return failure(err)
		}
		for i := range outs {
			if !compare[i] {
				skipped++
				continue
			}
			compared++
			diff := sameSchedule(outs[i].res, ref.outs[i].res)
			if (outs[i].err == nil) != (ref.outs[i].err == nil) {
				diff = fmt.Errorf("error %v vs %v", outs[i].err, ref.outs[i].err)
			}
			if diff != nil {
				return failure(fmt.Errorf("traced run differs from the untraced one: workload=%s seed=%d index=%d (%s): %v",
					cfg.workload, cfg.seed, tp.jobs[i].index, tp.jobs[i].name, diff))
			}
		}
		if err := chk.check(items(tp, outs)); err != nil {
			return failure(err)
		}
	}
	fmt.Fprintf(log, "traced %d passes: untraced %.3fs, traced %.3fs, %d jobs; %d traced results identical to the untraced pass's, %d not compared with it (%s)\n",
		passes, untraced.Seconds(), tracedWall.Seconds(), jobs, compared, skipped, w.uncompared)

	// Merge the goroutines' layer totals and counters.
	layers := map[string]*layerAgg{}
	var c counters
	for _, r := range recs {
		for name, a := range r.layers {
			t := layers[name]
			if t == nil {
				t = &layerAgg{}
				layers[name] = t
			}
			t.self += a.self
			t.calls += a.calls
		}
		c.add(r.counters)
	}
	get := func(name string) layerAgg {
		if a := layers[name]; a != nil {
			return *a
		}
		return layerAgg{}
	}
	J := float64(c.jobs)
	perJob := func(name string) float64 { return us(get(name).self) / J }
	calls := func(name string) float64 { return float64(get(name).calls) / J }

	m := newMetricSet(log)
	m.put("partition.initial_us", perJob(layerPartInitial), "us/job", c.jobs)
	m.put("partition.initial_calls", calls(layerPartInitial), "calls/job", c.jobs)
	m.put("partition.refine_us", perJob(layerPartRefine), "us/job", c.jobs)
	m.put("partition.refine_calls", calls(layerPartRefine), "calls/job", c.jobs)
	m.put("sched.us", perJob(layerSched), "us/job", c.jobs)
	m.put("sched.calls", calls(layerSched), "calls/job", c.jobs)
	m.put("sched.fail_frac", ratio(float64(c.schedFail), float64(c.schedCalls)), "ratio", c.schedCalls)
	m.put("sched.verify_us", perJob(layerVerify), "us/job", c.jobs)
	m.put("replic.us", perJob(layerReplic), "us/job", c.jobs)
	m.put("replic.calls", calls(layerReplic), "calls/job", c.jobs)
	m.put("replic.applied_frac", ratio(float64(c.replApply), float64(c.replCalls)), "ratio", c.replCalls)
	m.put("replic.length_us", perJob(layerReplicLength), "us/job", c.jobs)
	m.put("mii.us", perJob(layerMII), "us/job", c.jobs)
	compiled := get(layerPipeline).calls
	m.put("pipeline.attempts_per_job", ratio(float64(c.attempts), float64(compiled)), "attempts/job", compiled)
	m.put("pipeline.accept_frac", ratio(float64(c.okJobs), float64(c.attempts)), "ratio", c.attempts)
	m.put("pipeline.search_self_us", perJob(layerPipeline), "us/job", c.jobs)
	m.put("pipeline.failed_job_time_share", ratio(float64(c.failTime), float64(c.pipeTime)), "ratio", compiled)
	m.put("pipeline.remap_us", perJob(layerRemap), "us/job", c.jobs)
	m.put("ddg.shapehash_us", perJob(layerShapeHash), "us/job", c.jobs)
	m.put("ddg.canonical_us", perJob(layerCanonical), "us/job", c.jobs)
	m.put("ddg.marshal_us", perJob(layerMarshal), "us/job", c.jobs)
	m.put("ddg.parse_us", perJob(layerParse), "us/job", c.jobs)
	m.put("driver.hits", float64(cache.hits)/float64(passes), "count/pass", passes)
	m.put("driver.semantic_hits", float64(cache.semantic)/float64(passes), "count/pass", passes)
	m.put("driver.misses", float64(cache.misses)/float64(passes), "count/pass", passes)
	m.put("driver.hit_frac", ratio(float64(cache.hits+cache.semantic), float64(cache.hits+cache.semantic+cache.misses)), "ratio", 0)
	m.put("wire.job_encode_us", perJob(layerJobEncode), "us/job", c.jobs)
	m.put("wire.job_decode_us", perJob(layerJobDecode), "us/job", c.jobs)
	m.put("wire.result_encode_us", perJob(layerResEncode), "us/job", c.jobs)
	m.put("wire.result_decode_us", perJob(layerResDecode), "us/job", c.jobs)
	m.put("wire.job_bytes", float64(c.jobBytes)/J, "bytes/job", c.jobs)
	m.put("wire.result_bytes", float64(c.resBytes)/J, "bytes/job", c.jobs)
	m.put("service.submit_ms", ratio(ms(c.submitTime), float64(c.submits)), "ms", c.submits)
	m.put("service.rejected", float64(cache.rejected), "count", 0)
	m.put("service.stream_us", perJob(layerStream), "us/job", c.jobs)
	m.put("trace_overhead_pct", 100*(tracedWall.Seconds()/untraced.Seconds()-1), "%", passes)

	// Accounting: the layers' self times plus the unattributed remainder
	// make up the traced goroutines' wall time.
	var self time.Duration
	names := make([]string, 0, len(layers))
	for name, a := range layers {
		self += a.self
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	threadWall := time.Duration(w.threads) * tracedWall
	unattributed := 1 - self.Seconds()/threadWall.Seconds()
	m.put("unattributed_frac", unattributed, "ratio", 0)
	for _, name := range names {
		fmt.Fprintf(log, "layer %-22s self %10.3f ms  %5.1f%%  calls %d\n", name, ms(layers[name].self),
			100*layers[name].self.Seconds()/threadWall.Seconds(), layers[name].calls)
	}
	fmt.Fprintf(log, "accounting: layer self times %.3fs + unattributed %.3fs = %d goroutine(s) x traced wall %.3fs\n",
		self.Seconds(), unattributed*threadWall.Seconds(), w.threads, tracedWall.Seconds())

	if cfg.spanDir != "" {
		meta := map[string]any{"host": h, "workload": cfg.workload, "seed": cfg.seed,
			"traced_wall_s": tracedWall.Seconds(), "untraced_wall_s": untraced.Seconds(), "threads": w.threads}
		path, err := writeSpanFile(cfg.spanDir, cfg, meta, sink)
		if err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	return &report{Correct: true, Attempted: jobs, Failed: failed, Metrics: m.m}, nil
}

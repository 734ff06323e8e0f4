package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clusched/internal/pipeline"
)

// Layer names: one span name per layer boundary the benchmark times from
// outside. Self time is a span's duration minus the spans nested in it.
const (
	layerMII          = "mii"
	layerPipeline     = "pipeline"
	layerPartInitial  = "partition.initial"
	layerPartRefine   = "partition.refine"
	layerReplic       = "replic"
	layerReplicLength = "replic.length"
	layerSched        = "sched"
	layerVerify       = "sched.verify"
	layerShapeHash    = "ddg.shapehash"
	layerCanonical    = "ddg.canonical"
	layerMarshal      = "ddg.marshal"
	layerParse        = "ddg.parse"
	layerRemap        = "pipeline.remap"
	layerJobEncode    = "wire.job_encode"
	layerJobDecode    = "wire.job_decode"
	layerResEncode    = "wire.result_encode"
	layerResDecode    = "wire.result_decode"
	layerStream       = "service.stream"
	layerSubmit       = "service.submit"
)

// span is one recorded layer boundary. Spans of one job share Job.
type span struct {
	ID, Parent int64
	Job        int
	Thread     int
	Layer      string
	Start, End time.Duration // since the run's epoch
}

// spanSink keeps the run's spans in memory, up to a cap, for the span file.
type spanSink struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	limit   int
	dropped int
	nextID  atomic.Int64
}

func newSpanSink(limit int) *spanSink { return &spanSink{epoch: time.Now(), limit: limit} }

func (s *spanSink) add(sp []span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	room := max(0, s.limit-len(s.spans))
	if len(sp) > room {
		s.dropped += len(sp) - room
		sp = sp[:room]
	}
	s.spans = append(s.spans, sp...)
}

// layerAgg is a layer's accumulated self time and call count.
type layerAgg struct {
	self  time.Duration
	calls int
}

// counters are the per-layer counts taken at the same boundaries as the
// spans.
type counters struct {
	jobs, okJobs          int
	attempts              int
	schedCalls, schedFail int
	replCalls, replApply  int
	pipeTime, failTime    time.Duration
	jobBytes, resBytes    int
	submits               int
	submitTime            time.Duration
}

func (c *counters) add(o counters) {
	c.jobs += o.jobs
	c.okJobs += o.okJobs
	c.attempts += o.attempts
	c.schedCalls += o.schedCalls
	c.schedFail += o.schedFail
	c.replCalls += o.replCalls
	c.replApply += o.replApply
	c.pipeTime += o.pipeTime
	c.failTime += o.failTime
	c.jobBytes += o.jobBytes
	c.resBytes += o.resBytes
	c.submits += o.submits
	c.submitTime += o.submitTime
}

// recorder times the layers of one goroutine. It is not safe for
// concurrent use: each traced goroutine owns one.
type recorder struct {
	sink   *spanSink
	thread int
	job    int
	open   []openSpan
	done   []span
	layers map[string]*layerAgg
	counters
}

type openSpan struct {
	id, parent int64
	layer      string
	start      time.Duration
	child      time.Duration
}

func newRecorder(sink *spanSink, thread int) *recorder {
	return &recorder{sink: sink, thread: thread, layers: map[string]*layerAgg{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.sink.epoch) }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(layer string) {
	var parent int64
	if n := len(r.open); n > 0 {
		parent = r.open[n-1].id
	}
	r.open = append(r.open, openSpan{id: r.sink.nextID.Add(1), parent: parent, layer: layer, start: r.now()})
}

// end closes the innermost span and returns its duration.
func (r *recorder) end() time.Duration {
	t := r.now()
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	dur := t - o.start
	a := r.layers[o.layer]
	if a == nil {
		a = &layerAgg{}
		r.layers[o.layer] = a
	}
	a.self += dur - o.child
	a.calls++
	if n > 0 {
		r.open[n-1].child += dur
	}
	r.done = append(r.done, span{ID: o.id, Parent: o.parent, Job: r.job, Thread: r.thread, Layer: o.layer, Start: o.start, End: t})
	if len(r.done) >= 4096 {
		r.flush()
	}
	return dur
}

// flush hands the finished spans to the sink.
func (r *recorder) flush() {
	r.sink.add(r.done)
	r.done = r.done[:0]
}

// timedPass wraps one pass of pipeline.Chain() in a span and counts what
// it did. The partition pass is split into its initial and refine calls by
// whether the context carries an assignment before the call.
type timedPass struct {
	inner pipeline.Pass
	rec   *recorder
}

func (p timedPass) Name() string { return p.inner.Name() }

func (p timedPass) Run(ctx *pipeline.Context) error {
	var layer string
	switch p.inner.(type) {
	case pipeline.PartitionPass:
		layer = layerPartRefine
		if ctx.Assign == nil {
			layer = layerPartInitial
		}
		p.rec.attempts++
	case pipeline.ReplicationPass:
		layer = layerReplic
		p.rec.replCalls++
	case pipeline.LengthReplicationPass:
		layer = layerReplicLength
	case pipeline.SchedulePass:
		layer = layerSched
		p.rec.schedCalls++
	case pipeline.VerifyPass:
		layer = layerVerify
	default:
		return fmt.Errorf("ledgerbench: unexpected pass %s in the chain", p.inner.Name())
	}
	p.rec.begin(layer)
	err := p.inner.Run(ctx)
	p.rec.end()
	_, failed := ctx.Failed()
	switch p.inner.(type) {
	case pipeline.ReplicationPass:
		if ctx.ReplStats.Steps > 0 {
			p.rec.replApply++
		}
	case pipeline.SchedulePass:
		if failed {
			p.rec.schedFail++
		}
	}
	return err
}

// timedChain is pipeline.Chain() with every pass wrapped.
func timedChain(rec *recorder) []pipeline.Pass {
	chain := pipeline.Chain()
	for i, p := range chain {
		chain[i] = timedPass{inner: p, rec: rec}
	}
	return chain
}

// traceEvent is one Chrome trace-event "complete" event (Perfetto and
// chrome://tracing load the file directly).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpanFile writes the sink's spans, plus the run's description, to
// dir/<workload>-seed<seed>.json.
func writeSpanFile(dir string, cfg config, meta map[string]any, sink *spanSink) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sink.mu.Lock()
	spans := sink.spans
	meta["spans_dropped"] = sink.dropped
	sink.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{Name: s.Layer, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Thread,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job}}
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "otherData": meta})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

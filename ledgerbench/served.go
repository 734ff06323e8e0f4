package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"clusched"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/service"
	"clusched/internal/wire"
	"clusched/internal/workload"
)

// servedMixed is service traffic: one in-process service.Server behind a
// loopback HTTP listener and one clusched.NewRemote client streaming
// batches, one in flight, each of one program's loops on 4c2b2l64r with
// replication. For every program a pass sends its cold presentation, then
// fresh ddg.PermuteRandom clones of it (served by the semantic cache
// tier), then an exact repeat. Each pass starts a fresh server, so its
// cold presentations are cold.
type servedMixed struct {
	seed     int64
	programs [][]*ddg.Graph
	m        machine.Config
	opts     pipeline.Options
	tr       *timingTransport
	hc       *http.Client
	srv      *server
	// fresh marks srv as not yet used by any pass.
	fresh bool
}

// server is one service.Server on a loopback listener.
type server struct {
	svc  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{})
	s := &server{svc: svc, hs: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.svc.Shutdown(ctx)
}

// timingTransport times the batch submissions (POST /batch) into the
// recorder attached for a traced pass; it passes everything else through.
type timingTransport struct {
	base http.RoundTripper
	rec  atomic.Pointer[recorder]
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := t.rec.Load()
	if rec == nil || req.Method != http.MethodPost || req.URL.Path != "/batch" {
		return t.base.RoundTrip(req)
	}
	rec.begin(layerSubmit)
	resp, err := t.base.RoundTrip(req)
	d := rec.end()
	rec.submits++
	rec.submitTime += d
	return resp, err
}

func setupServedMixed(cfg config) (instance, error) {
	profiles := workload.Profiles()
	if cfg.tiny {
		profiles = profiles[:2]
	}
	s := &servedMixed{
		seed: cfg.seed,
		m:    machine.MustParse("4c2b2l64r"),
		opts: pipeline.Options{Replicate: true, VerifySchedules: true},
		tr:   &timingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	s.hc = &http.Client{Transport: s.tr}
	for _, p := range profiles {
		var gs []*ddg.Graph
		for _, l := range workload.GenerateBench(p) {
			gs = append(gs, l.Graph)
		}
		s.programs = append(s.programs, gs)
	}
	if err := s.restart(); err != nil {
		return nil, err
	}
	s.fresh = true
	return s, nil
}

// restart replaces the server with a fresh one and waits until it answers.
func (s *servedMixed) restart() error {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	s.hc.CloseIdleConnections()
	srv, err := startServer()
	if err != nil {
		return err
	}
	s.srv = srv
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := clusched.NewRemote(srv.url, clusched.WithHTTPClient(s.hc)).Health(ctx); err != nil {
		return fmt.Errorf("server health: %w", err)
	}
	return nil
}

// cloneSeed derives the permutation seed of one clone from the run seed,
// the pass, the program and the loop.
func cloneSeed(seed int64, pass, prog, loop int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(pass)<<40 ^ uint64(prog)<<20 ^ uint64(loop)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	return int64(x ^ x>>29)
}

func (s *servedMixed) prepare(n int) (*passInput, error) {
	if !s.fresh {
		if err := s.restart(); err != nil {
			return nil, err
		}
	}
	s.fresh = false
	var jobs []job
	var batches [][2]int
	add := func(g *ddg.Graph, kind string, origin int, clone bool) {
		jobs = append(jobs, job{
			CompileJob: clusched.CompileJob{Graph: g, Machine: s.m, Opts: s.opts},
			index:      len(jobs),
			name:       fmt.Sprintf("pass %d %s %s on %s", n, kind, g.Name, s.m.Name),
			origin:     origin,
			clone:      clone,
		})
	}
	for pi, gs := range s.programs {
		cold := len(jobs)
		for _, g := range gs {
			add(g, "cold", -1, false)
		}
		batches = append(batches, [2]int{cold, len(jobs)})
		lo := len(jobs)
		for li, g := range gs {
			add(ddg.PermuteRandom(g, fmt.Sprintf("%s~p%d", g.Name, n), cloneSeed(s.seed, n, pi, li)), "clone", cold+li, true)
		}
		batches = append(batches, [2]int{lo, len(jobs)})
		lo = len(jobs)
		for li, g := range gs {
			add(g, "repeat", cold+li, false)
		}
		batches = append(batches, [2]int{lo, len(jobs)})
	}
	srv := s.srv
	cache := func() cacheCounts {
		st := srv.svc.Stats()
		return cacheCounts{hits: st.Cache.Hits, semantic: st.Cache.SemanticHits, misses: st.Cache.Misses, rejected: st.Rejected}
	}
	return newPass(jobs, batches, clusched.NewRemote(srv.url, clusched.WithHTTPClient(s.hc)), cache), nil
}

// tracePass streams each batch through the service as the untraced pass
// does, timing the whole served call, then redoes each job's share of the
// served path with direct calls on the same jobs and results: the job
// codec, the text codec, shape hashing, what the server did for the job —
// compile it, canonicalise and remap an isomorphic result, or nothing for
// an exact repeat — and the result codec. Every served result must equal
// the directly computed one. Which isomorphic loop of a batch the server
// compiles and which it remaps depends on which finished first, so the
// comparison is made against this pass's served results, not the
// reference pass's.
func (s *servedMixed) tracePass(p *passInput, _ []outcome, recs []*recorder) ([]outcome, []bool, error) {
	rec := recs[0]
	s.tr.rec.Store(rec)
	defer s.tr.rec.Store(nil)
	d := &directPath{chain: timedChain(rec), rec: rec, outs: make([]outcome, len(p.jobs)), byShape: map[uint64][]int{}}
	ctx := context.Background()
	served := make([]outcome, len(p.jobs))
	graphs := make([]*ddg.Graph, len(p.jobs))
	shapes := make([]uint64, len(p.jobs))
	for _, b := range p.batches {
		rec.job = p.jobs[b[0]].index
		rec.begin(layerStream)
		for i, o := range p.backend.Stream(ctx, p.cjobs[b[0]:b[1]]) {
			if i >= 0 && i < b[1]-b[0] {
				served[b[0]+i] = outcome{res: o.Result, err: o.Err, cacheHit: o.CacheHit}
			}
		}
		rec.end()
		// The job codec first, in batch order; then the jobs the server
		// compiled or served exactly; then the remapped ones, each of which
		// needs the result it was remapped from, which may come later in
		// the batch.
		var remapped []int
		for k := b[0]; k < b[1]; k++ {
			j := &p.jobs[k]
			rec.job = j.index
			rec.jobs++
			g, shape, err := d.decode(j)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", j.name, err)
			}
			graphs[k], shapes[k] = g, shape
			if so := served[k]; so.cacheHit && so.err == nil && !j.repeat() {
				remapped = append(remapped, k)
				continue
			}
			if err := d.redo(k, j, g, shape, served[k]); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", j.name, err)
			}
		}
		for len(remapped) > 0 {
			var left []int
			for _, k := range remapped {
				j := &p.jobs[k]
				rec.job = j.index
				ok, err := d.remap(k, j, graphs[k], shapes[k], served[k].res)
				if err != nil {
					return nil, nil, fmt.Errorf("%s: %w", j.name, err)
				}
				if !ok {
					left = append(left, k)
				}
			}
			if len(left) == len(remapped) {
				j := &p.jobs[left[0]]
				return nil, nil, fmt.Errorf("%s: served from the semantic cache tier, but no remap of a same-shape result reproduces it", j.name)
			}
			remapped = left
		}
		for k := b[0]; k < b[1]; k++ {
			if so := served[k]; so.err == nil {
				rec.job = p.jobs[k].index
				if err := s.resultCodec(rec, so.res); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", p.jobs[k].name, err)
				}
			}
		}
	}
	return d.outs, make([]bool, len(p.jobs)), nil
}

// directPath redoes the served path's work for the jobs of one pass,
// keeping the engine's semantic index over its own results.
type directPath struct {
	chain   []pipeline.Pass
	rec     *recorder
	outs    []outcome
	byShape map[uint64][]int
}

// decode runs the job through the job codec, the text codec and shape
// hashing, and returns the graph as the server would hold it.
func (d *directPath) decode(j *job) (*ddg.Graph, uint64, error) {
	rec := d.rec
	rec.begin(layerJobEncode)
	wj, err := wire.EncodeJob(j.CompileJob)
	var data []byte
	if err == nil {
		data, err = json.Marshal(wj)
	}
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	rec.jobBytes += len(data)
	rec.begin(layerJobDecode)
	var back wire.Job
	err = json.Unmarshal(data, &back)
	if err == nil {
		_, err = back.Decode()
	}
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	rec.begin(layerMarshal)
	text, err := ddg.MarshalText(j.Graph)
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	rec.begin(layerParse)
	g, err := ddg.ParseOne(strings.NewReader(text))
	rec.end()
	if err != nil {
		return nil, 0, err
	}
	rec.begin(layerShapeHash)
	shape := g.ShapeHash()
	rec.end()
	return g, shape, nil
}

// redo computes the outcome of a job the server compiled, or served as an
// exact repeat, and checks it against the served outcome so.
func (d *directPath) redo(k int, j *job, g *ddg.Graph, shape uint64, so outcome) error {
	if j.repeat() {
		return d.record(k, shape, d.outs[j.origin], so)
	}
	res, err := compileTimed(d.rec, d.chain, g, j.Machine, j.Opts)
	return d.record(k, shape, outcome{res: res, err: err}, so)
}

// remap canonicalises g and the same-shape results so far, then remaps them
// until one yields the served schedule want; it reports false when none
// does yet.
func (d *directPath) remap(k int, j *job, g *ddg.Graph, shape uint64, want *pipeline.Result) (bool, error) {
	cands := d.byShape[shape]
	d.rec.begin(layerCanonical)
	sum := g.CanonicalForm().Sum
	for _, c := range cands {
		sinkU64.Add(d.outs[c].res.Loop.CanonicalForm().Sum)
	}
	d.rec.end()
	for _, c := range cands {
		src := d.outs[c].res
		if src.Loop.CanonicalForm().Sum != sum {
			continue
		}
		d.rec.begin(layerRemap)
		res, err := pipeline.RemapResult(src, g, j.Opts)
		d.rec.end()
		if err == nil && sameSchedule(res, want) == nil {
			return true, d.record(k, shape, outcome{res: res}, outcome{res: want})
		}
	}
	return false, nil
}

// record keeps job k's direct outcome, indexes it for later remaps, and
// checks it against the served outcome so.
func (d *directPath) record(k int, shape uint64, out, so outcome) error {
	d.outs[k] = out
	if out.err == nil {
		d.byShape[shape] = append(d.byShape[shape], k)
	}
	if (so.err == nil) != (out.err == nil) {
		return fmt.Errorf("served outcome error %v, direct %v", so.err, out.err)
	}
	if out.err == nil {
		if err := sameSchedule(so.res, out.res); err != nil {
			return fmt.Errorf("served result differs from the direct one: %v", err)
		}
	}
	return nil
}

// resultCodec encodes a served result as the server does and decodes it as
// the client does (rebuilding the instance graph and adopting the issue
// times), and checks the round trip.
func (s *servedMixed) resultCodec(rec *recorder, r *pipeline.Result) error {
	rec.begin(layerResEncode)
	wr, err := wire.EncodeResult(r, s.opts)
	var data []byte
	if err == nil {
		data, err = json.Marshal(wr)
	}
	rec.end()
	if err != nil {
		return err
	}
	rec.resBytes += len(data)
	rec.begin(layerResDecode)
	var back wire.Result
	err = json.Unmarshal(data, &back)
	var got *pipeline.Result
	if err == nil {
		got, err = back.Decode()
	}
	rec.end()
	if err != nil {
		return err
	}
	return sameSchedule(r, got)
}

func (s *servedMixed) repeatable() bool { return true }

func (s *servedMixed) close() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
	s.hc.CloseIdleConnections()
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
	"mpress/internal/serve"
	"mpress/internal/serve/api"
	"mpress/internal/serve/client"
)

// replayMinibatches are the minibatch counts each preset is requested
// at: the canonical count plans are computed at, and one that rebases.
var replayMinibatches = []int{2, 16}

// replayPresets are the planner presets the serve mix draws from.
var replayPresets = []string{"bertxdgx1", "bertxdgx2", "gptxdgx1", "gptxdgx2"}

// daemon is an in-process mpressd on a loopback listener, with a
// handler wrapper that counts response bytes and, in the traced run,
// opens a serve.handler span per request.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	cl   *client.Client
	tr   *tracer
	// tracing is set while a traced request is in flight.
	tracing atomic.Bool

	mu        sync.Mutex
	sizes     []float64
	lastSpan  int
	transport *http.Transport
}

func startDaemon(workers int, tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: serve.New(serve.Options{
			Runner: runner.Options{Workers: workers, PlanWorkers: workers},
			Logger: log.New(io.Discard, "", 0),
		}),
		done:      make(chan error, 1),
		tr:        tr,
		transport: &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers},
	}
	d.hs = &http.Server{Handler: d.wrap(d.srv.Handler())}
	go func() { d.done <- d.hs.Serve(ln) }()
	d.cl = client.New("http://" + ln.Addr().String())
	d.cl.HTTPClient = &http.Client{Transport: d.transport}
	return d, nil
}

// bufferedWriter holds a handler's status and body until it returns.
type bufferedWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *bufferedWriter) WriteHeader(status int) { w.status = status }
func (w *bufferedWriter) Write(p []byte) (int, error) {
	return w.body.Write(p)
}

// wrap buffers each response so the handler (and its span) has ended,
// and its size is recorded, before the client can see a byte.
func (d *daemon) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bw := &bufferedWriter{ResponseWriter: w, status: http.StatusOK}
		id := -1
		if d.tracing.Load() {
			id = d.tr.begin("serve.handler")
		}
		h.ServeHTTP(bw, r)
		if id >= 0 {
			d.tr.end(id)
		}
		d.mu.Lock()
		d.sizes = append(d.sizes, float64(bw.body.Len()))
		d.lastSpan = id
		d.mu.Unlock()
		w.WriteHeader(bw.status)
		_, _ = w.Write(bw.body.Bytes()) // a failed write surfaces as the client's error
	})
}

// close stops the daemon and waits for its serve loop to exit.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.transport.CloseIdleConnections()
	return err
}

// reply is what the loop keeps of one request: its latency, the
// daemon's own elapsed time and stage split, and a cheap digest of the
// plan as transported plus the report's key fields. Canonicalizing
// every response would load the client side of the measurement, so
// only each config's first response is checked in full (after the
// measured phase) and every other reply must match its digest.
type reply struct {
	cfg      int
	lat      time.Duration
	err      error
	resp     *api.PlanResponse // dropped by replyLog.add unless first
	sum      string
	oom      string
	elapsed  float64
	stages   map[string]float64
	events   int64
	spanID   int // traced run: client.Plan span
	handler  int // traced run: serve.handler span
	untraced bool
}

// replyLog collects replies, keeping the full response of the first
// reply of each config.
type replyLog struct {
	mu    sync.Mutex
	all   []reply
	first []reply
}

func (l *replyLog) add(r reply) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.resp != nil && l.first[r.cfg].resp == nil {
		l.first[r.cfg] = r
	}
	r.resp = nil
	l.all = append(l.all, r)
}

// serveReplay measures plan requests against an in-process daemon from
// loadThreads client goroutines in a closed loop. Requests cycle through
// seeded permutations of the 4 presets × replayMinibatches. Set-up
// warms the daemon's plan cache with every config, so every measured
// request is a cache hit that rebuilds, rebases, applies and executes;
// bertxdgx2 at 16 minibatches runs out of memory and counts as a
// failed request.
func serveReplay(b *bench) error {
	var cfgs []runner.Config
	var jobs []*runner.Job
	for _, p := range replayPresets {
		c, err := preset(p)
		if err != nil {
			return err
		}
		for _, mb := range replayMinibatches {
			c.Minibatches = mb
			j, err := runner.NewJob(c)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, c)
			jobs = append(jobs, j)
		}
	}
	ctx := context.Background()
	var d *daemon
	// Each set-up costs four cold plans, so it runs 3 times, not 5.
	err := b.setup(3, func() error {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		var err error
		if d, err = startDaemon(b.workers, b.tr); err != nil {
			return err
		}
		// The plan cache keys plans without the minibatch count, so
		// the canonical configs warm it for the whole mix.
		for i, c := range cfgs {
			if c.Minibatches != canonicalMinibatches {
				continue
			}
			if _, err := d.cl.Plan(ctx, c, ""); err != nil {
				return fmt.Errorf("warm %s: %w", jobs[i].Fingerprint()[:12], err)
			}
		}
		return nil
	})
	if d != nil {
		defer func() {
			if err := d.close(); err != nil {
				fmt.Fprintf(b.log, "daemon shutdown: %v\n", err)
			}
		}()
	}
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.sizes = nil
	d.mu.Unlock()

	// The request sequence: decks of every config, each deck a seeded
	// permutation, so any window of the run sees the whole mix. A run
	// sends whole decks only, so the failed share is the same in every
	// run: 1 request in len(cfgs) while bertxdgx2 at 16 minibatches
	// runs out of memory.
	decks := newDecks(b.seed, len(cfgs))

	before := d.srv.Runner().Stats()
	var heap allocMeter
	log := &replyLog{first: make([]reply, len(cfgs))}
	var wall time.Duration
	if b.trace {
		wall, _ = b.loop(len(cfgs), func(int) error {
			i, _ := decks.next(time.Duration(math.MaxInt64))
			b.heapBegin(&heap)
			u := request(ctx, d, i, cfgs[i], false)
			b.heapEnd(&heap)
			u.untraced = true
			log.add(u)
			log.add(request(ctx, d, i, cfgs[i], true))
			return nil
		})
	} else {
		// Each deck is a peak-RSS window.
		decks.onDeck = b.rssMark
		b.rssStart()
		wall = closedLoop(ctx, d, cfgs, loadThreads, b.seconds, decks, log)
		b.rssMark()
	}
	after := d.srv.Runner().Stats()

	refs, canonical, err := b.reference(ctx, jobs)
	if err != nil {
		return err
	}
	var parts [][]byte
	var rate, ttf float64
	var served int
	for i, f := range log.first {
		c := jobs[i].Config
		if f.resp == nil {
			b.checkf("serve-replay: %s at %d minibatches was never served", c.Model.Name, c.Minibatches)
			continue
		}
		out, err := servedFromResponse(f.resp)
		if err == nil {
			err = checkServed(out, refs[i])
		}
		if err != nil {
			b.checkf("serve-replay: %s at %d minibatches: %v", c.Model.Name, c.Minibatches, err)
			continue
		}
		parts = append(parts, []byte(out.report), []byte(out.plan))
		if f.oom == "" {
			rate += f.resp.Report.SamplesPerSec
			ttf += f.resp.Report.Duration.Secondsf()
			served++
		}
	}
	var lat []float64
	byCfg := make([][]float64, len(cfgs))
	for _, r := range log.all {
		b.attempted++
		c := jobs[r.cfg].Config
		if r.err != nil {
			var apiErr *api.Error
			if errors.As(r.err, &apiErr) && apiErr.IsSaturated() {
				b.metrics["serve.rejected"]++
			}
			b.failOp(fmt.Sprintf("http: %v", r.err))
			b.checkf("serve-replay: request for %s failed: %v", c.Model.Name, r.err)
			continue
		}
		if r.sum != log.first[r.cfg].sum {
			b.checkf("serve-replay: %s at %d minibatches: response differs from the config's first", c.Model.Name, c.Minibatches)
		}
		if r.oom != "" {
			b.failOp(fmt.Sprintf("%s at %d minibatches: %s", c.Model.Name, c.Minibatches, r.oom))
			continue
		}
		if !b.trace || r.untraced {
			lat = append(lat, ms(r.lat))
			byCfg[r.cfg] = append(byCfg[r.cfg], ms(r.lat))
		}
	}
	for i, xs := range byCfg {
		if len(xs) > 0 {
			fmt.Fprintf(b.log, "  %-10s minibatches %2d: %4d requests, p50 %8.2f ms\n",
				jobs[i].Config.Model.Name, jobs[i].Config.Minibatches, len(xs), median(xs))
		}
	}
	b.noteDigest(digest(parts...))
	b.opLatencies(lat, wall)
	if served > 0 {
		b.metrics["sim_samples_per_s"] = rate / float64(served)
	}
	b.metrics["sim_ttf_s"] = ttf
	fmt.Fprintf(b.log, "serve-replay: req_per_s %.3f, req_p50_ms %.3f, req_p90_ms %.3f over %d requests (%d client(s), closed loop)\n",
		b.metrics["ops_per_s"], b.metrics["op_p50_ms"], b.metrics["op_p90_ms"], len(lat), loadThreads)
	if !b.trace {
		return nil
	}
	b.metrics["serve.response_kib"] = d.responseKiB()
	return b.traceServe(log.all, canonical, jobs, before, after, &heap)
}

// decks hands out config indices in seeded permutations of every
// config.
type decks struct {
	mu   sync.Mutex
	rng  *rand.Rand
	n    int
	deck []int
	sent int
	t0   time.Time
	// onDeck, if set, runs as each deck after the first begins.
	onDeck func()
}

func newDecks(seed int64, n int) *decks {
	return &decks{rng: rand.New(rand.NewSource(seed)), n: n}
}

// next returns the next config index. Once seconds have passed since
// the first call it starts no new deck and returns false, so the
// indices handed out always form whole decks.
func (d *decks) next(seconds time.Duration) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sent == 0 {
		d.t0 = time.Now()
	}
	if len(d.deck) == 0 {
		if d.sent > 0 && time.Since(d.t0) >= seconds {
			return 0, false
		}
		if d.sent > 0 && d.onDeck != nil {
			d.onDeck()
		}
		d.deck = d.rng.Perm(d.n)
	}
	i := d.deck[0]
	d.deck = d.deck[1:]
	d.sent++
	return i, true
}

// closedLoop runs clients goroutines that each send their next request
// only after the previous reply, in whole decks until the measuring
// time is used up, and returns the wall time until the last reply.
func closedLoop(ctx context.Context, d *daemon, cfgs []runner.Config, clients int, seconds time.Duration,
	ds *decks, log *replyLog) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := ds.next(seconds)
				if !ok {
					return
				}
				log.add(request(ctx, d, i, cfgs[i], false))
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// request sends one plan request for config i and digests the reply. A
// traced request runs inside a client.Plan span.
func request(ctx context.Context, d *daemon, i int, cfg runner.Config, traced bool) reply {
	id := -1
	if traced {
		d.tracing.Store(true)
		id = d.tr.begin("client.Plan")
	}
	t0 := time.Now()
	resp, err := d.cl.Plan(ctx, cfg, "")
	r := reply{cfg: i, lat: time.Since(t0), err: err, spanID: id, handler: -1}
	if traced {
		d.tr.end(id)
		d.tracing.Store(false)
		d.mu.Lock()
		r.handler = d.lastSpan
		d.mu.Unlock()
	}
	if err != nil {
		return r
	}
	rep := resp.Report
	if rep == nil {
		r.err = fmt.Errorf("response has no report")
		return r
	}
	if rep.OOM != nil {
		r.oom = rep.OOM.Error()
	}
	r.resp, r.elapsed, r.stages, r.events = resp, resp.ElapsedMS, resp.StageMS, rep.SimEvents
	r.sum = digest(resp.Plan, []byte(fmt.Sprintf("%s|%v|%d|%d|%v",
		r.oom, rep.SamplesPerSec, rep.Duration, rep.SimEvents, rep.PerGPUPeak)))
	return r
}

// reference plans every config on a local runner — the outputs each
// served reply must match byte for byte — and returns them with each
// preset's canonical plan (the one the daemon rebases from).
func (b *bench) reference(ctx context.Context, jobs []*runner.Job) ([]servedOutput, map[string]*plan.Plan, error) {
	rnr := runner.New(runner.Options{Workers: b.workers, PlanWorkers: b.workers})
	results := rnr.RunAll(ctx, jobs)
	refs := make([]servedOutput, len(jobs))
	canonical := map[string]*plan.Plan{}
	for i, res := range results {
		if res.Err != nil {
			return nil, nil, fmt.Errorf("local reference: %w", res.Err)
		}
		var err error
		if refs[i], err = servedFromReport(jobs[i], res.Report); err != nil {
			return nil, nil, err
		}
		if jobs[i].Config.Minibatches == canonicalMinibatches {
			canonical[jobs[i].PlanKey()] = res.Report.Plan
		}
	}
	return refs, canonical, nil
}

// traceServe turns the traced requests into per-layer metrics. The
// daemon's runner stages become derived spans under each request's
// serve.handler span, and each rebasing request's plan stage gets the
// canonical pipeline.Build and plan.Rebase that stage performs, timed
// by a probe on the local reference plan.
func (b *bench) traceServe(replies []reply, canonical map[string]*plan.Plan,
	jobs []*runner.Job, before, after runner.Stats, heap *allocMeter) error {
	rebase := map[int][]time.Duration{}
	var overheadMS, pairMS []float64
	stages := map[string][]float64{}
	var tracedWall time.Duration
	var events int64
	ops := 0
	var prev *reply
	for k := range replies {
		r := &replies[k]
		if r.untraced {
			prev = r
			continue
		}
		ops++
		tracedWall += b.tr.spans[r.spanID].end - b.tr.spans[r.spanID].start
		if prev != nil && prev.err == nil {
			pairMS = append(pairMS, ms(r.lat-prev.lat))
		}
		if r.err != nil {
			continue
		}
		events += r.events
		overheadMS = append(overheadMS, ms(r.lat)-r.elapsed)
		sd := map[string]time.Duration{}
		for s, v := range r.stages {
			sd[s] = time.Duration(v * float64(time.Millisecond))
			stages[s] = append(stages[s], v)
		}
		parent := r.spanID
		if r.handler >= 0 {
			parent = r.handler
		}
		elapsed := time.Duration(r.elapsed * float64(time.Millisecond))
		start := b.tr.spans[parent].start
		planSpan := addRunnerSpans(b.tr, parent, start+elapsed, elapsed, sd, false)
		j := jobs[r.cfg]
		if planSpan < 0 || j.Config.Minibatches == canonicalMinibatches {
			continue
		}
		ds, ok := rebase[r.cfg]
		if !ok {
			var err error
			if ds, err = probeRebase(j, canonical[j.PlanKey()]); err != nil {
				return err
			}
			rebase[r.cfg] = ds
		}
		b.tr.addSeq(planSpan, b.tr.spans[planSpan].start, []string{"pipeline.Build", "plan.Rebase"}, ds)
	}
	b.tr.events = events
	for s, xs := range stages {
		b.metrics["runner."+s+"_ms"] = median(xs)
	}
	reqs := float64(len(replies))
	b.metrics["runner.plan_cache_hits"] = float64(after.PlanCacheHits-before.PlanCacheHits) / reqs
	b.metrics["runner.plan_computes"] = float64(after.PlanComputes-before.PlanComputes) / reqs
	b.metrics["exec.sim_events"] = float64(events) / float64(ops)
	b.metrics["serve.overhead_ms"] = median(overheadMS)
	b.spanMetrics(ops)
	b.hostMetrics(heap)
	b.finishTrace(tracedWall, ops, time.Duration(median(pairMS)*float64(time.Millisecond)))
	return nil
}

// probeRebase times the two calls a cache-hit plan stage makes for a
// job off the canonical minibatch count: the canonical pipeline.Build
// and plan.Rebase onto the job's own lowering.
func probeRebase(j *runner.Job, pl *plan.Plan) ([]time.Duration, error) {
	if pl == nil {
		return nil, fmt.Errorf("no canonical plan for %s", j.Fingerprint()[:12])
	}
	c := j.Config
	part, err := partition(c)
	if err != nil {
		return nil, err
	}
	to, err := pipeline.Build(buildConfig(c, part, c.Minibatches))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	from, err := pipeline.Build(buildConfig(c, part, canonicalMinibatches))
	if err != nil {
		return nil, err
	}
	tb := time.Since(t0)
	t0 = time.Now()
	if _, err := plan.Rebase(pl, from, to); err != nil {
		return nil, err
	}
	return []time.Duration{tb, time.Since(t0)}, nil
}

// responseKiB is the median response body size the daemon wrote.
func (d *daemon) responseKiB() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return median(d.sizes) / 1024
}

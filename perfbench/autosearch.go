package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mpress/internal/runner"
	"mpress/internal/search"
)

// searchBases are the DGX-1 planner presets autosearch starts from —
// what `mpress-plan -auto` does for each.
var searchBases = []string{"bertxdgx1", "gptxdgx1"}

// doneJob is one job a search's runner finished, as its OnJobDone hook
// saw it.
type doneJob struct {
	end time.Duration
	res runner.JobResult
}

// autosearch measures one search pass per op: search.Run over
// search.DefaultSpace from each base, each with a fresh transposition
// table and runner, in a seeded base order. It makes many small cold
// plans, so fixed planner cost (mapping search, profiling) dominates.
func autosearch(b *bench) error {
	ctx := context.Background()
	bases := make([]runner.Config, len(searchBases))
	err := b.setup(5, func() error {
		for i, name := range searchBases {
			c, err := preset(name)
			if err != nil {
				return err
			}
			if _, err := runner.NewJob(c); err != nil {
				return err
			}
			// A search of the base strategy alone runs the same code
			// first, so first-touch costs are paid here.
			if _, err := search.Run(ctx, c, search.Space{}, search.Options{Workers: loadThreads}); err != nil {
				return err
			}
			bases[i] = c
		}
		return nil
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(b.seed))
	var lat, overhead []float64
	var heap allocMeter
	var tracedWall time.Duration
	var winnerRate, winnerTTF float64
	var counts search.Result // summed counters of the traced passes
	var stats runner.Stats
	var jobs []doneJob
	wall, err := b.loop(1, func(i int) error {
		order := rng.Perm(len(bases))
		b.attempted++
		b.heapBegin(&heap)
		t0 := time.Now()
		results, err := searchPass(ctx, loadThreads, bases, order, nil, nil)
		d := time.Since(t0)
		b.heapEnd(&heap)
		if err != nil {
			return err
		}
		rate, ttf, ok := b.checkPass(results)
		if !ok {
			return nil
		}
		lat = append(lat, ms(d))
		winnerRate, winnerTTF = rate, ttf
		if !b.trace {
			return nil
		}
		var mu sync.Mutex
		var pass []doneJob
		hook := func(jr runner.JobResult) {
			mu.Lock()
			pass = append(pass, doneJob{b.tr.now(), jr})
			mu.Unlock()
		}
		var roots []int
		t1 := time.Now()
		traced, err := searchPass(ctx, 1, bases, order, hook, func(fn func()) {
			id := b.tr.begin("search.Run")
			fn()
			b.tr.end(id)
			roots = append(roots, id)
		})
		td := time.Since(t1)
		if err != nil {
			return err
		}
		tracedWall += td
		overhead = append(overhead, ms(td-d))
		if _, _, ok := b.checkPass(traced); !ok {
			return nil
		}
		for _, r := range traced {
			counts.Expanded += r.res.Expanded
			counts.Pruned += r.res.Pruned
			counts.MemoHits += r.res.MemoHits
			counts.Skipped += r.res.Skipped
			counts.SpaceSize += r.res.SpaceSize
			stats.PlanCacheHits += r.stats.PlanCacheHits
			stats.PlanComputes += r.stats.PlanComputes
		}
		if err := b.addJobSpans(roots, pass); err != nil {
			return err
		}
		jobs = append(jobs, pass...)
		return nil
	})
	if err != nil {
		return err
	}
	b.opLatencies(lat, wall)
	b.metrics["sim_samples_per_s"] = winnerRate
	b.metrics["sim_ttf_s"] = winnerTTF
	fmt.Fprintf(b.log, "autosearch: search_wall_s %.3f s (median of %d passes over %d bases), winner_ttf_s %.6g\n",
		b.metrics["op_p50_ms"]/1000, len(lat), len(bases), winnerTTF)
	if !b.trace {
		return nil
	}
	ops := len(overhead)
	stages := map[string][]float64{}
	emulations := 0
	for _, j := range jobs {
		for s, d := range j.res.StageTimes {
			stages[s] = append(stages[s], ms(d))
		}
		if rep := j.res.Report; rep != nil {
			b.tr.events += rep.SimEvents
			if rep.Plan != nil {
				emulations += rep.Plan.Emulations
			}
		}
	}
	for s, xs := range stages {
		b.metrics["runner."+s+"_ms"] = median(xs)
	}
	per := func(n int) float64 { return float64(n) / float64(ops) }
	b.metrics["runner.plan_cache_hits"] = per(int(stats.PlanCacheHits))
	b.metrics["runner.plan_computes"] = per(int(stats.PlanComputes))
	b.metrics["search.expanded"] = per(counts.Expanded)
	b.metrics["search.pruned"] = per(counts.Pruned)
	b.metrics["search.memo_hits"] = per(counts.MemoHits)
	b.metrics["search.skipped"] = per(counts.Skipped)
	if n := counts.SpaceSize - counts.Skipped; n > 0 {
		b.metrics["search.avoided_ratio"] = float64(counts.Pruned+counts.MemoHits) / float64(n)
	}
	if counts.Expanded > 0 {
		b.metrics["search.ms_per_expanded"] = ms(b.tr.total("search.Run")) / float64(counts.Expanded)
	}
	b.metrics["exec.sim_events"] = float64(b.tr.events) / float64(ops)
	b.metrics["plan.emulations"] = per(emulations)
	b.spanMetrics(ops)
	b.hostMetrics(&heap)
	b.finishTrace(tracedWall, ops, time.Duration(median(overhead)*float64(time.Millisecond)))
	return nil
}

// baseResult is one base's search outcome in a pass.
type baseResult struct {
	base  runner.Config
	res   *search.Result
	stats runner.Stats
}

// searchPass searches from every base in the given order on a fresh
// runner and table each, and returns the results in base order. hook,
// when set, observes every finished job; wrap, when set, runs each
// search.Run call (the traced run opens its span there).
func searchPass(ctx context.Context, workers int, bases []runner.Config, order []int,
	hook func(runner.JobResult), wrap func(func())) ([]baseResult, error) {
	out := make([]baseResult, len(bases))
	for _, i := range order {
		base := bases[i]
		rnr := runner.New(runner.Options{Workers: workers, OnJobDone: hook})
		var res *search.Result
		var err error
		call := func() {
			res, err = search.Run(ctx, base, search.DefaultSpace(base), search.Options{Table: search.NewMemTable(), Runner: rnr})
		}
		if wrap != nil {
			wrap(call)
		} else {
			call()
		}
		if err != nil {
			return nil, fmt.Errorf("search from %s: %w", base.Model.Name, err)
		}
		out[i] = baseResult{base, res, rnr.Stats()}
	}
	return out, nil
}

// checkPass runs autosearch's output checks on one pass, records its
// digest, and returns the winners' summed effective rate and
// time-to-fit; ok is false when a check failed.
func (b *bench) checkPass(results []baseResult) (rate, ttf float64, ok bool) {
	var parts [][]byte
	for _, r := range results {
		if err := checkSearch(r.res); err != nil {
			b.checkf("autosearch from %s: %v", r.base.Model.Name, err)
			return 0, 0, false
		}
		best := r.res.Best()
		rate += best.Eval.EffSamplesPerSec
		ttf += best.TimeToFit.Secondsf()
		var report bytes.Buffer
		search.WriteReport(&report, r.res)
		winner, err := json.Marshal(r.res.WinnerReport)
		if err != nil {
			b.checkf("autosearch: %v", err)
			return 0, 0, false
		}
		parts = append(parts, report.Bytes(), winner)
		if r.res.WinnerReport.Plan != nil {
			j, err := runner.NewJob(*r.res.WinnerConfig)
			if err != nil {
				b.checkf("autosearch: winner config: %v", err)
				return 0, 0, false
			}
			file, err := canonicalPlanFile(j, r.res.WinnerReport)
			if err != nil {
				b.checkf("autosearch: %v", err)
				return 0, 0, false
			}
			parts = append(parts, file)
		}
	}
	b.noteDigest(digest(parts...))
	return rate, ttf, true
}

// addJobSpans lays the jobs of one traced pass out under their
// search.Run spans, and inserts profiler and mapping probes into every
// plan stage that computed a plan. The probes replay those two calls on
// the job's canonical lowering after the pass, outside its wall time.
func (b *bench) addJobSpans(roots []int, pass []doneJob) error {
	for _, j := range pass {
		parent := -1
		for _, r := range roots {
			if s := b.tr.spans[r]; j.end >= s.start && j.end <= s.end {
				parent = r
			}
		}
		computed := !j.res.PlanCacheHit && j.res.Report != nil && j.res.Report.Plan != nil
		planSpan := addRunnerSpans(b.tr, parent, j.end, j.res.Elapsed, j.res.StageTimes, computed)
		if !computed || planSpan < 0 {
			continue
		}
		collect, search, err := probeMapping(j.res.Job.Config)
		if err != nil {
			return fmt.Errorf("probe %s: %w", j.res.Job.Fingerprint()[:12], err)
		}
		addProbeSpans(b.tr, planSpan, b.tr.spans[planSpan].start, collect, search)
	}
	return nil
}

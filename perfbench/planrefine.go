package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"mpress/internal/exec"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/runner"
)

// planRefine measures one cold plan of the bertxdgx2 preset (Bert-6.2B
// on DGX-2, PipeDream, MPress) per op, each on a fresh runner so the
// plan cache never helps. Refinement dominates it: 194 emulations, each
// a pipeline.Build + plan.Apply + exec.Run.
func planRefine(b *bench) error {
	ctx := context.Background()
	var job *runner.Job
	err := b.setup(5, func() error {
		j, err := presetJob("bertxdgx2", canonicalMinibatches)
		if err != nil {
			return err
		}
		// A cold plan of the light bertxdgx1 preset runs the same code
		// first, so heap growth and first-touch costs are paid here,
		// not by the first measured op.
		warm, err := presetJob("bertxdgx1", canonicalMinibatches)
		if err != nil {
			return err
		}
		if res := b.runCold(ctx, warm); res.Err != nil {
			return res.Err
		}
		job = j
		return nil
	})
	if err != nil {
		return err
	}

	var lat, overhead, emulationMS []float64
	stages := map[string][]float64{}
	var tracedWall time.Duration
	var heap allocMeter
	var last *runner.Report
	wall, err := b.loop(1, func(i int) error {
		b.attempted++
		b.heapBegin(&heap)
		t0 := time.Now()
		res := b.runCold(ctx, job)
		d := time.Since(t0)
		b.heapEnd(&heap)
		if res.Err != nil {
			return fmt.Errorf("bertxdgx2: %w", res.Err)
		}
		last = res.Report
		if !b.checkRefine(job, res.Report) {
			return nil
		}
		lat = append(lat, ms(d))
		if !b.trace {
			return nil
		}
		for s, sd := range res.StageTimes {
			stages[s] = append(stages[s], ms(sd))
		}
		t1 := time.Now()
		pl, er, err := directJob(b.tr, job)
		td := time.Since(t1)
		if err != nil {
			return fmt.Errorf("direct-call replay: %w", err)
		}
		tracedWall += td
		overhead = append(overhead, ms(td-d))
		if er.SamplesPerSec != res.Report.SamplesPerSec || pl.Emulations != res.Report.Plan.Emulations {
			b.checkf("traced direct-call run: %.6g samples/s, %d emulations; runner.Run: %.6g, %d",
				er.SamplesPerSec, pl.Emulations, res.Report.SamplesPerSec, res.Report.Plan.Emulations)
		}
		emu, err := probeRefine(b.tr, job, pl)
		if err != nil {
			return err
		}
		emulationMS = append(emulationMS, ms(emu))
		return nil
	})
	if err != nil {
		return err
	}
	b.opLatencies(lat, wall)
	if last != nil && last.OOM == nil {
		b.metrics["sim_samples_per_s"] = last.SamplesPerSec
		b.metrics["sim_ttf_s"] = last.Duration.Secondsf()
	}
	fmt.Fprintf(b.log, "plan-refine: plan_wall_s %.3f s (median of %d cold plans), sim_samples_per_s %.4f\n",
		b.metrics["op_p50_ms"]/1000, len(lat), b.metrics["sim_samples_per_s"])
	if !b.trace {
		return nil
	}
	ops := len(emulationMS)
	for s, xs := range stages {
		b.metrics["runner."+s+"_ms"] = median(xs)
	}
	b.metrics["runner.plan_computes"] = 1 // a fresh runner per op
	b.metrics["plan.emulations"] = float64(last.Plan.Emulations)
	b.metrics["plan.emulation_ms"] = median(emulationMS)
	b.metrics["exec.sim_events"] = float64(b.tr.events) / float64(ops)
	b.spanMetrics(ops)
	b.hostMetrics(&heap)
	b.finishTrace(tracedWall, ops, time.Duration(median(overhead)*float64(time.Millisecond)))
	return nil
}

// runCold plans and runs j on a fresh runner.
func (b *bench) runCold(ctx context.Context, j *runner.Job) runner.JobResult {
	return runner.New(runner.Options{Workers: 1, PlanWorkers: b.workers}).Run(ctx, j)
}

// checkRefine runs plan-refine's output checks on one report and
// records its digest; it reports whether the op succeeded.
func (b *bench) checkRefine(j *runner.Job, rep *runner.Report) bool {
	if rep.OOM != nil {
		b.failOp(rep.OOM.Error())
	}
	if err := checkFits(rep); err != nil {
		b.checkf("plan-refine: %v", err)
		return false
	}
	file, err := canonicalPlanFile(j, rep)
	if err != nil {
		b.checkf("plan-refine: %v", err)
		return false
	}
	if err := checkRoundTrip(j, file); err != nil {
		b.checkf("plan-refine: %v", err)
	}
	report, err := json.Marshal(rep)
	if err != nil {
		b.checkf("plan-refine: %v", err)
		return false
	}
	b.noteDigest(digest(report, file))
	return true
}

// directJob replays the runner's stages for a planned, fault-free,
// single-node job as direct calls, each in a span; pipeline.Build calls
// inside plan.Compute are timed through the plan.Options.Build hook.
// The planner runs sequentially so the spans nest.
func directJob(tr *tracer, j *runner.Job) (*plan.Plan, *exec.Result, error) {
	c := j.Config
	if c.Resilient() || c.Replicas() > 1 || c.TP() > 1 {
		return nil, nil, fmt.Errorf("direct-call replay covers single-node, fault-free, TP=1 jobs only")
	}
	allowed, err := allowedFor(c.System)
	if err != nil {
		return nil, nil, err
	}
	topo, err := plane(c)
	if err != nil {
		return nil, nil, err
	}
	var part pipeline.Partition
	tr.call("pipeline.PartitionModel", func() { part, err = partition(c) })
	if err != nil {
		return nil, nil, err
	}
	build := func(mb int) func() (*pipeline.Built, error) {
		return func() (bt *pipeline.Built, err error) {
			tr.call("pipeline.Build", func() { bt, err = pipeline.Build(buildConfig(c, part, mb)) })
			return bt, err
		}
	}
	built, err := build(c.Minibatches)()
	if err != nil {
		return nil, nil, err
	}
	var pl *plan.Plan
	tr.call("plan.Compute", func() {
		pl, err = plan.Compute(plan.Options{
			Topo: topo, Build: build(canonicalMinibatches), Allowed: allowed,
			DisableMappingSearch: c.DisableMappingSearch,
			DisableStriping:      c.DisableStriping,
		})
	})
	if err != nil {
		return nil, nil, err
	}
	if c.Minibatches != canonicalMinibatches {
		from, err := build(canonicalMinibatches)()
		if err != nil {
			return nil, nil, err
		}
		tr.call("plan.Rebase", func() { pl, err = plan.Rebase(pl, from, built) })
		if err != nil {
			return nil, nil, err
		}
	}
	var opts *exec.Options
	tr.call("plan.Apply", func() { opts, err = plan.Apply(pl, built, topo) })
	if err != nil {
		return nil, nil, err
	}
	var res *exec.Result
	tr.call("exec.Run", func() { res, err = exec.Run(*opts) })
	if err != nil {
		return nil, nil, err
	}
	tr.events += res.Events
	return pl, res, nil
}

// probeRefine adds the profiler and mapping probes to the last
// plan.Compute span, right after its first (reference) build, and
// times one emulation — a Build + Apply + exec.Run replay of the final
// plan at canonical minibatches — which it returns. The probes run
// after the traced op, outside its wall time.
func probeRefine(tr *tracer, j *runner.Job, pl *plan.Plan) (time.Duration, error) {
	c := j.Config
	collect, search, err := probeMapping(c)
	if err != nil {
		return 0, err
	}
	compute := -1
	for i := len(tr.spans) - 1; i >= 0 && compute < 0; i-- {
		if tr.spans[i].name == "plan.Compute" {
			compute = i
		}
	}
	at := tr.spans[compute].start
	for i := compute + 1; i < len(tr.spans); i++ {
		if tr.spans[i].parent == compute {
			at = tr.spans[i].end
			break
		}
	}
	addProbeSpans(tr, compute, at, collect, search)

	topo, err := plane(c)
	if err != nil {
		return 0, err
	}
	part, err := partition(c)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	bt, err := pipeline.Build(buildConfig(c, part, canonicalMinibatches))
	if err != nil {
		return 0, err
	}
	opts, err := plan.Apply(pl, bt, topo)
	if err != nil {
		return 0, err
	}
	if _, err := exec.Run(*opts); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// spanMetrics fills the per-layer metrics every workload derives the
// same way from its spans, as totals per op.
func (b *bench) spanMetrics(ops int) {
	per := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	t := b.tr
	b.metrics["pipeline.build_calls"] = float64(t.count("pipeline.Build")) / float64(ops)
	b.metrics["pipeline.build_ms"] = per(t.total("pipeline.Build"))
	b.metrics["profiler.collect_ms"] = per(t.total("profiler.Collect"))
	b.metrics["mapping.search_ms"] = per(t.total("mapping.Search"))
	b.metrics["plan.compute_ms"] = per(t.total("plan.Compute"))
	b.metrics["plan.compute_self_ms"] = per(t.selfOf("plan.Compute"))
	b.metrics["plan.apply_ms"] = per(t.total("plan.Apply"))
	b.metrics["plan.rebase_ms"] = per(t.total("plan.Rebase"))
	b.metrics["exec.run_ms"] = per(t.total("exec.Run"))
	if run := t.total("exec.Run"); run > 0 {
		b.metrics["sim.events_per_s"] = float64(t.events) / run.Seconds()
	}
}

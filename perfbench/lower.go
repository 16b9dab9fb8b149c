package main

import (
	"fmt"
	"time"

	"mpress/internal/experiments"
	"mpress/internal/hw"
	"mpress/internal/mapping"
	"mpress/internal/pipeline"
	"mpress/internal/plan"
	"mpress/internal/profiler"
	"mpress/internal/runner"
)

// canonicalMinibatches mirrors the runner's: plans are computed at this
// minibatch count and rebased to the job's own.
const canonicalMinibatches = 2

// preset returns a planner preset's config by name.
func preset(name string) (runner.Config, error) {
	for _, p := range experiments.PlannerPresets() {
		if p.Name == name {
			return p.Cfg, nil
		}
	}
	return runner.Config{}, fmt.Errorf("no planner preset %q", name)
}

// presetJob validates a planner preset at the given minibatch count.
func presetJob(name string, minibatches int) (*runner.Job, error) {
	c, err := preset(name)
	if err != nil {
		return nil, err
	}
	c.Minibatches = minibatches
	return runner.NewJob(c)
}

// buildConfig is the lowering the runner builds for a config at the
// given minibatch count.
func buildConfig(c runner.Config, part pipeline.Partition, minibatches int) pipeline.BuildConfig {
	return pipeline.BuildConfig{
		Model: c.Model, Prec: *c.Precision, Part: part, Kind: c.Schedule,
		MicrobatchSize: c.MicrobatchSize,
		Microbatches:   c.Microbatches,
		Minibatches:    minibatches,
		TP:             c.TPDegree,
	}
}

// partition runs the runner's partition step for a defaulted config.
func partition(c runner.Config) (pipeline.Partition, error) {
	return pipeline.PartitionModel(c.Model, c.Stages, c.Strategy, c.Schedule,
		*c.Precision, c.MicrobatchSize, c.Microbatches)
}

// allowedFor is the runner's system → planner mechanism translation for
// the systems the direct-call path replays.
func allowedFor(s runner.System) (plan.Allowed, error) {
	switch s {
	case runner.SystemGPUCPUSwap:
		return plan.Allowed{HostSwap: true}, nil
	case runner.SystemRecompute:
		return plan.Allowed{Recompute: true}, nil
	case runner.SystemMPressD2D:
		return plan.Allowed{D2D: true}, nil
	case runner.SystemMPress:
		return plan.AllMechanisms(), nil
	}
	return plan.Allowed{}, fmt.Errorf("system %v does not plan", s)
}

// plane returns the topology a defaulted config simulates on.
func plane(c runner.Config) (*hw.Topology, error) {
	g, err := c.Grid()
	if err != nil {
		return nil, err
	}
	return g.Plane(), nil
}

// stageSpan names the span a runner stage becomes in a trace: the
// public call that dominates the stage. A plan stage that computed a
// plan is plan.Compute; one served from the plan cache stays a runner
// span (its canonical build and rebase are added by probes).
func stageSpan(stage string, computed bool) string {
	switch stage {
	case "partition":
		return "pipeline.PartitionModel"
	case "build":
		return "pipeline.Build"
	case "plan":
		if computed {
			return "plan.Compute"
		}
		return "runner.plan"
	case "apply":
		return "plan.Apply"
	case "execute":
		return "exec.Run"
	}
	return "runner." + stage
}

// runnerStages is the stage order of a planned, fault-free job.
var runnerStages = []string{"partition", "build", "plan", "apply", "execute", "report"}

// addRunnerSpans lays a finished job out as derived spans under parent:
// runner.Run ending at end, with its stages back to back inside it. It
// returns the plan stage's span.
func addRunnerSpans(tr *tracer, parent int, end, elapsed time.Duration, stages map[string]time.Duration, computed bool) int {
	run := tr.add("runner.Run", parent, end-elapsed, elapsed)
	names := make([]string, 0, len(runnerStages))
	ds := make([]time.Duration, 0, len(runnerStages))
	planIdx := -1
	for _, s := range runnerStages {
		d, ok := stages[s]
		if !ok {
			continue
		}
		if s == "plan" {
			planIdx = len(names)
		}
		names = append(names, stageSpan(s, computed))
		ds = append(ds, d)
	}
	ids := tr.addSeq(run, tr.spans[run].start, names, ds)
	if planIdx < 0 {
		return -1
	}
	return ids[planIdx]
}

// probeMapping times the planner's first two steps — profiler.Collect
// and mapping.Search on a fresh canonical lowering — outside the
// measured op, the way plan.Compute calls them.
func probeMapping(c runner.Config) (collect, search time.Duration, err error) {
	topo, err := plane(c)
	if err != nil {
		return 0, 0, err
	}
	part, err := partition(c)
	if err != nil {
		return 0, 0, err
	}
	b, err := pipeline.Build(buildConfig(c, part, canonicalMinibatches))
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	prof, err := profiler.Collect(topo, b, nil)
	if err != nil {
		return 0, 0, err
	}
	collect = time.Since(t0)
	t0 = time.Now()
	if _, err := mapping.Search(topo, prof.StagePeak); err != nil {
		return 0, 0, err
	}
	return collect, time.Since(t0), nil
}

// addProbeSpans inserts the probed profiler and mapping durations into
// a plan.Compute span, at offset at.
func addProbeSpans(tr *tracer, compute int, at, collect, search time.Duration) {
	tr.addSeq(compute, at, []string{"profiler.Collect", "mapping.Search"}, []time.Duration{collect, search})
}

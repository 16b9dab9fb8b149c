package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/serve/api"
)

// canonicalPlanFile renders a job's plan in the plan.Save byte format
// (fingerprint-labelled), the artifact every check compares.
func canonicalPlanFile(j *runner.Job, rep *runner.Report) ([]byte, error) {
	if rep.Plan == nil {
		return nil, fmt.Errorf("%s: report carries no plan", j.Config.Model.Name)
	}
	var buf bytes.Buffer
	if err := j.SavePlan(&buf, rep.Plan); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkFits requires a report that did not run out of memory and whose
// every GPU peak fits the GPU's capacity.
func checkFits(rep *runner.Report) error {
	if rep.OOM != nil {
		return fmt.Errorf("report is OOM: %v", rep.OOM)
	}
	capacity := rep.Config.Topology.GPU.Memory
	for g, peak := range rep.PerGPUPeak {
		if peak > capacity {
			return fmt.Errorf("gpu%d peak %v exceeds capacity %v", g, peak, capacity)
		}
	}
	if len(rep.PerGPUPeak) == 0 {
		return fmt.Errorf("report has no per-GPU peaks")
	}
	return nil
}

// checkRoundTrip requires a plan file to survive Load→Save unchanged.
func checkRoundTrip(j *runner.Job, file []byte) error {
	pl, err := j.LoadPlan(bytes.NewReader(file), false)
	if err != nil {
		return fmt.Errorf("plan file does not load: %w", err)
	}
	var again bytes.Buffer
	if err := j.SavePlan(&again, pl); err != nil {
		return err
	}
	if !bytes.Equal(file, again.Bytes()) {
		return fmt.Errorf("plan file changed on Save→Load→Save (%d vs %d bytes)", len(file), again.Len())
	}
	return nil
}

// checkSearch requires a winner that no evaluated candidate beats and
// counters that account for every candidate of the space.
func checkSearch(res *search.Result) error {
	best := res.Best()
	if best == nil {
		return fmt.Errorf("search found no winner")
	}
	if res.WinnerReport == nil || res.WinnerConfig == nil {
		return fmt.Errorf("search winner has no report")
	}
	for _, c := range res.Candidates {
		if (c.Outcome == search.OutcomeEvaluated || c.Outcome == search.OutcomeMemo) && c.TimeToFit < best.TimeToFit {
			return fmt.Errorf("candidate %d (time-to-fit %v) beats winner %d (%v)", c.Rank, c.TimeToFit, best.Rank, best.TimeToFit)
		}
	}
	if n := res.Expanded + res.Pruned + res.MemoHits + res.Skipped; n != res.SpaceSize {
		return fmt.Errorf("expanded+pruned+memo+skipped = %d, space size %d", n, res.SpaceSize)
	}
	return nil
}

// servedOutput is a plan response reduced to what the serve check
// compares: digests of its canonical report JSON and plan file, and its
// OOM reason ("" when the job fit).
type servedOutput struct {
	fingerprint string
	report      string
	plan        string
	oom         string
}

// servedFromReport is the output a local runner produced for j.
func servedFromReport(j *runner.Job, rep *runner.Report) (servedOutput, error) {
	report, err := json.Marshal(rep)
	if err != nil {
		return servedOutput{}, err
	}
	file, err := canonicalPlanFile(j, rep)
	if err != nil {
		return servedOutput{}, err
	}
	out := servedOutput{fingerprint: j.Fingerprint(), report: digest(report), plan: digest(file)}
	if rep.OOM != nil {
		out.oom = rep.OOM.Error()
	}
	return out, nil
}

// servedFromResponse is the output a daemon served, with the embedded
// plan re-rendered in the plan.Save byte format (as mpress-load
// -verify compares it).
func servedFromResponse(resp *api.PlanResponse) (servedOutput, error) {
	if resp.Report == nil {
		return servedOutput{}, fmt.Errorf("response has no report")
	}
	file, err := resp.CanonicalPlanFile()
	if err != nil {
		return servedOutput{}, err
	}
	report, err := json.Marshal(resp.Report)
	if err != nil {
		return servedOutput{}, err
	}
	out := servedOutput{fingerprint: resp.Fingerprint, report: digest(report), plan: digest(file)}
	if resp.Report.OOM != nil {
		out.oom = resp.Report.OOM.Error()
	}
	return out, nil
}

// checkServed requires a served output to equal the local runner's
// byte for byte.
func checkServed(got, want servedOutput) error {
	switch {
	case got.fingerprint != want.fingerprint:
		return fmt.Errorf("served fingerprint %.12s, want %.12s", got.fingerprint, want.fingerprint)
	case got.plan != want.plan:
		return fmt.Errorf("%.12s: served plan file differs from the local runner's", want.fingerprint)
	case got.report != want.report:
		return fmt.Errorf("%.12s: served report differs from the local runner's", want.fingerprint)
	}
	return nil
}

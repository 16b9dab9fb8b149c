package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mpress/internal/runner"
	"mpress/internal/search"
	"mpress/internal/serve/api"
	"mpress/internal/units"
)

// lightJob runs the cheapest planner preset and returns its job and
// report.
func lightJob(t *testing.T) (*runner.Job, *runner.Report) {
	t.Helper()
	j, err := presetJob("gptxdgx2", canonicalMinibatches)
	if err != nil {
		t.Fatal(err)
	}
	res := runner.New(runner.Options{Workers: 1}).Run(context.Background(), j)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return j, res.Report
}

func TestCheckFitsRejectsPeakOverCapacity(t *testing.T) {
	_, rep := lightJob(t)
	if err := checkFits(rep); err != nil {
		t.Fatalf("seed output rejected: %v", err)
	}
	bad := *rep
	bad.PerGPUPeak = append([]units.Bytes(nil), rep.PerGPUPeak...)
	bad.PerGPUPeak[1] = rep.Config.Topology.GPU.Memory + 1
	if err := checkFits(&bad); err == nil {
		t.Fatal("a peak over capacity passed the check")
	}
}

func TestCheckRoundTripRejectsChangedByte(t *testing.T) {
	j, rep := lightJob(t)
	file, err := canonicalPlanFile(j, rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRoundTrip(j, file); err != nil {
		t.Fatalf("seed plan file rejected: %v", err)
	}
	// One extra byte of indentation still loads but is not canonical.
	bad := bytes.Replace(file, []byte("\n"), []byte("\n "), 1)
	if err := checkRoundTrip(j, bad); err == nil {
		t.Fatal("a plan file changed by one byte passed the check")
	}
}

// TestCheckServedRejectsChangedPlan serves a local report the way the
// daemon embeds it, then changes one digit of the embedded plan file.
func TestCheckServedRejectsChangedPlan(t *testing.T) {
	j, rep := lightJob(t)
	want, err := servedFromReport(j, rep)
	if err != nil {
		t.Fatal(err)
	}
	file, err := canonicalPlanFile(j, rep)
	if err != nil {
		t.Fatal(err)
	}
	resp := &api.PlanResponse{Fingerprint: j.Fingerprint(), Report: rep, Plan: json.RawMessage(file)}
	got, err := servedFromResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(got, want); err != nil {
		t.Fatalf("seed response rejected: %v", err)
	}
	const key = `"Mapping": [`
	i := bytes.Index(file, []byte(key))
	if i < 0 {
		t.Fatal("plan file has no mapping")
	}
	for i += len(key); file[i] < '0' || file[i] > '9'; i++ {
	}
	bad := bytes.Clone(file)
	bad[i] = '0' + (bad[i]-'0'+1)%8
	resp.Plan = json.RawMessage(bad)
	if got, err = servedFromResponse(resp); err != nil {
		t.Fatal(err)
	}
	if err := checkServed(got, want); err == nil || !strings.Contains(err.Error(), "plan file") {
		t.Fatalf("a plan file changed by one byte passed the check (err %v)", err)
	}
}

func TestCheckSearchRejectsBrokenResults(t *testing.T) {
	good := func() *search.Result {
		return &search.Result{
			SpaceSize: 4, Expanded: 2, Pruned: 1, MemoHits: 1, Winner: 1,
			Candidates: []search.Candidate{
				{Rank: 0, Outcome: search.OutcomeEvaluated, TimeToFit: 20},
				{Rank: 1, Outcome: search.OutcomeEvaluated, TimeToFit: 10},
				{Rank: 2, Outcome: search.OutcomePruned},
				{Rank: 3, Outcome: search.OutcomeMemo, TimeToFit: 20},
			},
			WinnerConfig: &runner.Config{}, WinnerReport: &runner.Report{},
		}
	}
	if err := checkSearch(good()); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	beaten := good()
	beaten.Candidates[3].TimeToFit = 5
	miscounted := good()
	miscounted.Pruned = 0
	none := good()
	none.Winner = -1
	for name, r := range map[string]*search.Result{"beaten": beaten, "miscounted": miscounted, "no winner": none} {
		if err := checkSearch(r); err == nil {
			t.Errorf("%s result passed the check", name)
		}
	}
}

// TestSelfTimesPartitionWall checks that nested spans' self times sum
// to their root's duration, with derived children clamped to their
// parent.
func TestSelfTimesPartitionWall(t *testing.T) {
	const ms = time.Millisecond
	tr := &tracer{spans: []span{
		{name: "client.Plan", start: 0, end: 100 * ms, parent: -1},
		{name: "serve.handler", start: 10 * ms, end: 90 * ms, parent: 0},
	}}
	run := tr.add("runner.Run", 1, 10*ms, 60*ms)
	tr.addSeq(run, 10*ms, []string{"pipeline.Build", "plan.Apply", "exec.Run"}, []time.Duration{20 * ms, 30 * ms, 40 * ms})
	self := tr.layerSelf()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100*ms {
		t.Fatalf("self times sum to %v, want 100ms", sum)
	}
	if got := tr.total("exec.Run"); got != 10*ms {
		t.Fatalf("exec.Run clamped to %v, want 10ms", got)
	}
	if self["serve"] != 40*ms {
		t.Fatalf("serve self %v, want 40ms", self["serve"])
	}
}

// The serve loop stops only between decks, so a run's requests are
// whole permutations of the mix and its failed share never varies.
func TestDecksHandOutWholePermutations(t *testing.T) {
	const n = 8
	ds := newDecks(7, n)
	var got []int
	for {
		i, ok := ds.next(50 * time.Millisecond)
		if !ok {
			break
		}
		got = append(got, i)
		if len(got) == n+3 {
			time.Sleep(60 * time.Millisecond)
		}
	}
	if len(got) != 2*n {
		t.Fatalf("handed out %d indices after the deadline passed mid-deck, want two whole decks of %d", len(got), n)
	}
	for k := 0; k < len(got); k += n {
		seen := map[int]bool{}
		for _, i := range got[k : k+n] {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("deck %v is not a permutation of 0..%d", got[k:k+n], n-1)
			}
			seen[i] = true
		}
	}
}

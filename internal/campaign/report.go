package campaign

import (
	"encoding/json"
	"io"
	"os"
)

// GridInfo summarizes the campaign grid shape.
type GridInfo struct {
	// Scenarios is the workload-axis length.
	Scenarios int `json:"scenarios"`
	// Cells counts (scenario, bug) pairs.
	Cells int `json:"cells"`
	// Reps is the per-cell repetition count.
	Reps int `json:"reps"`
	// Runs = Cells × Reps, the grid size.
	Runs int `json:"runs"`
}

// RunScore is what one message set achieved on one run.
type RunScore struct {
	Set string `json:"set"`
	// Detected: the bug affected at least one traced message (Table 5's
	// detection notion). Meaningful on passing runs too — a silently
	// corrupted field a traced message exposes counts.
	Detected bool `json:"detected"`
	// Localized: the run failed, the debugger left a non-empty plausible
	// cause set, and every surviving cause names the injected bug's IP.
	Localized bool `json:"localized"`
	// Depth is the 1-based index of the last investigation step that
	// eliminated a cause; 0 when no step narrowed the cause set.
	Depth int `json:"depth"`
	// Plausible is the size of the surviving cause set.
	Plausible int `json:"plausible"`
	// Steps is the total narration length.
	Steps int `json:"steps"`
}

// RunRecord is the full outcome of one grid point.
type RunRecord struct {
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Bug      int    `json:"bug"`
	BugIP    string `json:"bug_ip"`
	Target   string `json:"target"`
	Rep      int    `json:"rep"`
	Seed     int64  `json:"seed"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Detail carries the panic value or the error text.
	Detail string `json:"detail,omitempty"`
	// Attempts is always 1: Run runs each point once and never retries.
	Attempts int `json:"attempts"`
	// Events / EndCycle / Symptoms describe the buggy run.
	Events   int    `json:"events,omitempty"`
	EndCycle uint64 `json:"end_cycle,omitempty"`
	Symptoms int    `json:"symptoms,omitempty"`
	// FirstSymptom is the earliest symptom's kind ("Hang", "BadTrap").
	FirstSymptom string `json:"first_symptom,omitempty"`
	// Scores holds one entry per message set, in scenario Sets order.
	// Absent on panicked and errored runs.
	Scores []RunScore `json:"scores,omitempty"`
}

// MiningInfo summarizes how one scenario's mined flow specifications were
// produced — the provenance record of a mined-vs-truth campaign.
type MiningInfo struct {
	// Scenario names the campaign scenario the specs were mined for.
	Scenario string `json:"scenario"`
	// Traces and Slices describe the golden corpus the miner consumed.
	Traces int `json:"traces"`
	Slices int `json:"slices"`
	// Flows is the mined flow count (the truth flow count when mining
	// recovered the scenario exactly).
	Flows int `json:"flows"`
	// Shared lists message names the miner censored as unattributable
	// (carried by several flows, like T2's siincu).
	Shared []string `json:"shared,omitempty"`
	// Splits counts the consistency-repair ejections the miner needed.
	Splits int `json:"splits,omitempty"`
}

// Scorecard aggregates one message set across the whole grid.
type Scorecard struct {
	Set string `json:"set"`
	// Spec is the provenance of the flow specs the set was selected under
	// (SpecTruth or SpecMined); empty for legacy campaigns that do not
	// state one.
	Spec string `json:"spec,omitempty"`
	// SymptomRuns counts scored runs that manifested a symptom — the
	// denominator for the localization rates and means below.
	SymptomRuns int `json:"symptom_runs"`
	// RunsDetected counts scored runs (failing or passing) where the set
	// saw the bug; BugsDetected counts distinct bug IDs among them.
	RunsDetected int `json:"runs_detected"`
	BugsDetected int `json:"bugs_detected"`
	// RunsLocalized / BugsLocalized: same, for correct-IP localization on
	// symptom runs.
	RunsLocalized int `json:"runs_localized"`
	BugsLocalized int `json:"bugs_localized"`
	// MeanDepth is the mean narration depth over symptom runs; computed
	// from integer sums so it is bit-deterministic.
	MeanDepth float64 `json:"mean_depth"`
	// MeanPlausible is the mean surviving-cause count over symptom runs.
	MeanPlausible float64 `json:"mean_plausible"`
	// MeanAmbiguity is the mean expected reconstruction ambiguity of the
	// set over the scenarios that declare one (Scenario.Ambiguity) — how
	// many executions a reconstruction engine would still weigh after
	// observing the set's projection, next to how well the debugger
	// localized with it. Zero when no scenario declared it.
	MeanAmbiguity float64 `json:"mean_ambiguity"`
}

// Report is the campaign's complete, deterministic result. Two campaigns
// with the same Spec (ignoring Obs and Workers, neither of which reaches
// the report) serialize to byte-identical JSON.
type Report struct {
	Name string   `json:"name"`
	Seed int64    `json:"seed"`
	Grid GridInfo `json:"grid"`
	Sets []string `json:"sets"`
	// Mining records per-scenario spec-mining provenance when the campaign
	// scored mined sets; absent otherwise (legacy reports are unchanged).
	Mining     []MiningInfo `json:"mining,omitempty"`
	Scorecards []Scorecard  `json:"scorecards"`
	Runs       []RunRecord  `json:"runs"`
}

// Card returns the scorecard for the named set, or nil.
func (r *Report) Card(set string) *Scorecard {
	for i := range r.Scorecards {
		if r.Scorecards[i].Set == set {
			return &r.Scorecards[i]
		}
	}
	return nil
}

// WriteJSON serializes the report as indented JSON. Struct-field order is
// fixed by the type definitions and slices are index-ordered, so the bytes
// are stable across runs and worker counts.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the JSON report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

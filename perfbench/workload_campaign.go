package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"tracescale/internal/campaign"
	"tracescale/internal/obs"
)

// campaignSetups is how many times a run builds the spec; setup_s is the
// median.
const campaignSetups = 3

// campaignWarm is the campaign warm-up: 8 grids, reading the live heap
// after each.
var campaignWarm = warmSpec{ops: 8, every: 1}

// runCampaign is the campaign workload: one op is one full 29-point T2
// grid with the five default sets at master seed = workload seed + op
// number, through campaign.Run with campaignWorkers workers. Building the
// sets is setup.
func runCampaign(cfg runConfig) (*report, error) {
	r := &report{tailQ: 0.9}
	var spec campaign.Spec
	setupReg := obs.NewRegistry()
	var setupLog *spanLog
	if cfg.trace {
		setupLog = newSpanLog(time.Now())
	}
	err := r.setUp(campaignSetups, cfg.trace, func() (err error) {
		spec, err = buildCampaignSpec(cfg.seed, setupReg, setupLog)
		return err
	})
	if err != nil {
		return nil, err
	}
	golden := spec
	if cfg.seed != 1 {
		if golden, err = buildCampaignSpec(1, nil, nil); err != nil {
			return nil, err
		}
	}
	if err := checkGoldenCampaign(golden); err != nil {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
	spec.Reps, spec.Workers = 1, campaignWorkers
	points := len(gridOf(&spec))

	runReg := obs.NewRegistry()
	// refs[i] is the digest of campaign.Run's records for op i, kept in a
	// traced run to check the replay against.
	refs := map[int][sha256.Size]byte{}
	op := func(_, i int) opResult {
		s := spec
		s.Seed = cfg.seed + int64(i)
		s.Obs = runReg
		var rep *campaign.Report
		var err error
		ms := timeMS(func() { rep, err = campaign.Run(s) })
		if err == nil {
			err = campaignFailure(rep, points)
		}
		if cfg.trace {
			var d [sha256.Size]byte
			if err == nil {
				d = sha256.Sum256(recordsJSON(rep.Runs))
			}
			refs[i] = d
		}
		return opResult{class: "campaign", ms: ms, err: err}
	}
	r.warmUp(campaignWarm, op)
	r.timed = closedLoop(cfg.clients, campaignWarm.ops, cfg.duration(), op)
	if !cfg.trace {
		return r, nil
	}

	replay := &campaignReplay{spec: &spec, points: gridOf(&spec)}
	epoch := time.Now()
	for w := range replay.logs {
		replay.logs[w] = newSpanLog(epoch)
		replay.stats[w].outcomes = map[string]int{}
	}
	// Grids the untraced phase did not reach are compared with
	// campaign.Run after the phase, outside the timed loop.
	var unmatched []opDigest
	r.traced = closedLoop(cfg.clients, campaignWarm.ops, cfg.duration(), func(_, i int) opResult {
		var recs []campaign.RunRecord
		ms := timeMS(func() { recs = replay.grid(i, cfg.seed+int64(i)) })
		res := opResult{class: "campaign", ms: ms}
		d := sha256.Sum256(recordsJSON(recs))
		switch want, ok := refs[i]; {
		case !ok:
			unmatched = append(unmatched, opDigest{i, d})
		case d != want:
			res.err = fmt.Errorf("replayed grid %d records differ from campaign.Run's", i)
		}
		return res
	})
	for _, o := range unmatched {
		s := spec
		s.Seed = cfg.seed + int64(o.i)
		rep, err := campaign.Run(s)
		if err == nil && sha256.Sum256(recordsJSON(rep.Runs)) != o.d {
			err = fmt.Errorf("replayed grid %d records differ from campaign.Run's", o.i)
		}
		if err != nil {
			r.checkErrs = append(r.checkErrs, err.Error())
			break
		}
	}

	lt := aggregate(replay.logs[:]...)
	setup := aggregate(setupLog)
	L := newLayers()
	// Simulated statistics are the first replayed grid's; times and work
	// counts cover every replayed grid.
	first, all := replay.first, replay.total()
	L["soc.run_ms"] = ms(lt.busy["soc.run"])
	L["soc.events"] = float64(first.events)
	L["soc.cycles"] = float64(first.cycles)
	L["soc.ns_per_event"] = share(float64(lt.busy["soc.run"]), float64(all.events))
	L["debugger.observe_ms"] = ms(lt.busy["debugger.observe"])
	L["debugger.debug_ms"] = ms(lt.busy["debugger.debug"])
	L["debugger.steps"] = float64(first.steps)
	L["debugger.eliminated_share"] = share(float64(first.eliminated), float64(first.causesTotal))
	L["campaign.points"] = float64(replay.records)
	for _, o := range []string{campaign.OutcomeSymptom, campaign.OutcomePass, campaign.OutcomeError, campaign.OutcomePanic, campaign.OutcomeTimeout} {
		L["campaign.outcome."+o] = float64(first.outcomes[o])
	}
	L["campaign.idle_ms"] = ms(int64(replay.idle))
	L["core.select_ms.reconstruct"] = ms(setup.busy["core.select.reconstruct"])
	L["reconstruct.paircount_ms"] = ms(setup.busy["reconstruct.paircount"])
	L["core.ambiguity_evals"] = float64(setupReg.Snapshot()["core.select.ambiguity_evals"])
	selfSum := int64(0)
	for _, v := range lt.self {
		selfSum += v
	}
	r.finishTrace(L, selfSum+int64(replay.idle), campaignWorkers, "campaign", cfg, append(replay.logs[:], setupLog)...)
	return r, nil
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/dataset"
	"insightalign/internal/flow"
	"insightalign/internal/insight"
	"insightalign/internal/netlist"
	"insightalign/internal/obs"
	"insightalign/internal/online"
	"insightalign/internal/qor"
	"insightalign/internal/recipe"
)

// The online workload is a fixed-length fine-tuning campaign of
// online.Tuner.Iterate with the paper's defaults (K=5) on D17 at suite
// scale 0.25 (~3.1k gates), starting from a seeded model. Set-up builds a
// small seeded archive of D17 flow runs for the QoR statistics and the
// starting insight. The P&R engines (placer, cts, router, sta, power) do
// most of the work here and little in offline. The decoder also reads
// weights that training has just updated in place, which forces the l0
// table rebuild — a use of the decoder that serving never makes. One op is
// one iteration; a run repeats whole campaigns.
//
// The campaign is the same for every --seed. Any change to its inputs —
// the model's seed, the archive, the tuner's seed — changes which recipe
// sets it proposes, and a flow run's cost depends on its recipes: across
// seeds the mean iteration time ranged from 0.65 s to 1.2 s on a 2-vCPU
// Xeon, a spread no useful bound could hold. Fixing the campaign leaves
// only run-to-run noise in its figures.
const (
	onlineDesign     = "D17"
	onlineScale      = 0.25
	onlineArchive    = 8 // archive points, the probe run included
	onlineIterations = 6
	onlineSeed       = 1 // the model's, the archive's and the tuner's seed
)

type onlineState struct {
	design *netlist.Netlist
	iv     insight.Vector
	stats  qor.Stats
	in     qor.Intention
	points []dataset.Point
}

func setupOnline(seed int64) (*onlineState, error) {
	var spec *netlist.Spec
	for _, s := range netlist.SuiteSpecs(onlineScale) {
		if s.Name == onlineDesign {
			s := s
			spec = &s
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("design %s not in the suite", onlineDesign)
	}
	nl, err := netlist.Generate(*spec)
	if err != nil {
		return nil, err
	}
	runner := flow.NewRunner(nl)
	rng := rand.New(rand.NewSource(seed))
	m, tr, err := runner.Run(flow.DefaultParams(), rng.Int63())
	if err != nil {
		return nil, fmt.Errorf("probe run: %w", err)
	}
	iv := insight.Extract(m, tr)
	ds := &dataset.Dataset{Designs: []string{onlineDesign}, Intention: qor.Default()}
	ds.Points = append(ds.Points, dataset.Point{DesignName: onlineDesign, Insight: iv, Metrics: *m})
	seen := map[recipe.Set]bool{{}: true}
	for len(ds.Points) < onlineArchive {
		s := dataset.SampleSet(rng, 8)
		if seen[s] {
			continue
		}
		seen[s] = true
		m, _, err := runner.Run(recipe.ApplySet(flow.DefaultParams(), s), rng.Int63())
		if err != nil {
			return nil, fmt.Errorf("archive run: %w", err)
		}
		ds.Points = append(ds.Points, dataset.Point{DesignName: onlineDesign, Insight: iv, Set: s, Metrics: *m})
	}
	if err := ds.Rescore(); err != nil {
		return nil, err
	}
	stats, err := ds.StatsOf(onlineDesign)
	if err != nil {
		return nil, err
	}
	return &onlineState{design: nl, iv: iv, stats: stats, in: ds.Intention, points: ds.Points}, nil
}

// iterationGolden is what the golden trajectory pins per iteration.
type iterationGolden struct {
	Sets     []string `json:"sets"`
	BestQoR  float64  `json:"best_qor"`
	Failures int      `json:"failures"`
}

// campaign is one fixed-length fine-tuning run from a fresh seeded model.
type campaign struct {
	wall  time.Duration
	iters []float64 // ms per Iterate
	traj  []iterationGolden
}

// runCampaign runs one campaign. With hooks set, the runner's StageHook
// and MetricsHook time the flow stages, and each update is followed by a
// timed replay of the proposal decode.
func runCampaign(st *onlineState, seed int64, hooks *flowHooks, rec *recorder) (campaign, error) {
	var c campaign
	t0 := time.Now()
	mcfg := core.DefaultConfig()
	mcfg.Seed = seed
	model, err := core.New(mcfg)
	if err != nil {
		return c, err
	}
	runner := flow.NewRunner(st.design)
	if hooks != nil {
		runner.StageHook = hooks.stage
		runner.MetricsHook = hooks.metrics
	}
	opt := online.DefaultOptions()
	opt.Seed = seed
	tuner, err := online.NewTuner(model, runner, st.iv, st.stats, st.in, opt)
	if err != nil {
		return c, err
	}
	evals := make([]online.Evaluation, len(st.points))
	for i, p := range st.points {
		lp := model.LogProb(st.iv.Slice(), p.Set.Bits()).Item()
		evals[i] = online.Evaluation{Set: p.Set, Metrics: p.Metrics, QoR: p.QoR, LogProbOld: lp, Iteration: -1}
	}
	tuner.SeedHistory(evals)
	for i := 0; i < onlineIterations; i++ {
		if hooks != nil {
			hooks.iter = i
		}
		ti := time.Now()
		r, err := tuner.Iterate()
		if err != nil {
			return c, err
		}
		c.iters = append(c.iters, rec.add("online.iterate", "", i, ti))
		g := iterationGolden{BestQoR: r.BestQoR, Failures: r.Failures}
		for _, e := range r.Evaluations {
			g.Sets = append(g.Sets, e.Set.String())
		}
		c.traj = append(c.traj, g)
		if hooks != nil {
			tp := time.Now()
			model.NewDecoder(tuner.Insight().Slice()).BeamSearch(opt.K)
			rec.add("core.propose", "online.iterate", i, tp)
		}
	}
	c.wall = time.Since(t0)
	return c, nil
}

// flowHooks times the flow stages from the runner's seams: each stage is
// the interval between consecutive StageHook checkpoints, and MetricsHook
// closes the last one. Without leakage-recovery swaps there is no signoff
// checkpoint and flow.power covers leakage recovery and power analysis;
// with swaps, flow.signoff covers the signoff STA and power analysis.
type flowHooks struct {
	rec  *recorder
	iter int // the iteration running; set between Iterate calls

	mu   sync.Mutex
	open map[uint64]hookMark // run -> last checkpoint
	born map[uint64]time.Time
}

type hookMark struct {
	stage string
	at    time.Time
}

func newFlowHooks(rec *recorder) *flowHooks {
	return &flowHooks{rec: rec, open: map[uint64]hookMark{}, born: map[uint64]time.Time{}}
}

func (h *flowHooks) stage(_ context.Context, run uint64, stage string) error {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.open[run]; ok {
		h.rec.addSpan("flow."+prev.stage, "flow.run", h.iter, prev.at, now)
	} else {
		h.born[run] = now
	}
	h.open[run] = hookMark{stage: stage, at: now}
	return nil
}

func (h *flowHooks) metrics(run uint64, _ *flow.Metrics) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := h.open[run]; ok {
		h.rec.addSpan("flow."+prev.stage, "flow.run", h.iter, prev.at, now)
		h.rec.addSpan("flow.run", "online.iterate", h.iter, h.born[run], now)
	}
	delete(h.open, run)
	delete(h.born, run)
}

func runOnline(cfg runConfig) (*report, error) {
	setupS, st, err := medianSetup(setupRepeats, func() (*onlineState, error) {
		return setupOnline(onlineSeed)
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := newReport(cfg)
	rep.setup = setupS
	t := newTally()

	// Each campaign is one sample of every figure, and the run reports
	// the median over its campaigns, so one campaign that met a slow
	// stretch of a shared machine does not move the result.
	var (
		lat                        []float64
		p50s, p99s, iterSs, cpuOps []float64
		first                      []iterationGolden
	)
	ph := startPhase()
	stop := time.Now().Add(cfg.seconds)
	for len(p50s) == 0 || time.Now().Before(stop) {
		cpu0 := cpuTime()
		c, err := runCampaign(st, onlineSeed, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		n := float64(len(c.iters))
		lat = append(lat, c.iters...)
		p50s = append(p50s, percentile(c.iters, 50))
		p99s = append(p99s, percentile(c.iters, 99))
		iterSs = append(iterSs, c.wall.Seconds()/n)
		cpuOps = append(cpuOps, float64(cpuTime()-cpu0)/float64(time.Millisecond)/n)
		if first == nil {
			first = c.traj
			class := checkTrajectory(rep, onlineSeed, c.traj)
			for range c.traj {
				t.record(class)
			}
			continue
		}
		for i := range c.traj {
			if sameJSON(first[i], c.traj[i]) {
				t.record("")
			} else {
				t.record(failMismatch)
			}
		}
	}
	res := ph.end()
	iterS := median(iterSs)
	rep.endToEnd(res, len(lat), median(p50s), median(p99s), 1/iterS, median(cpuOps))
	rep.info("online_iter_s", iterS, "s")
	rep.info("campaigns", float64(len(p50s)), "count")
	rep.info("best_qor", first[len(first)-1].BestQoR, "score")
	if cfg.trace {
		if err := traceOnline(rep, st, t, first, median(lat)); err != nil {
			return nil, err
		}
	}
	rep.t = t
	return rep, nil
}

// checkTrajectory checks a run's first campaign against the golden
// trajectory — the chosen sets and BestQoR of every iteration — and
// returns the failure class of each of its ops.
func checkTrajectory(rep *report, seed int64, traj []iterationGolden) string {
	found, equal, err := goldenCheck("online", seed, traj)
	switch {
	case err != nil:
		rep.note("golden trajectory: %v", err)
		return failMismatch
	case !found:
		rep.note("no golden trajectory for campaign seed %d: checked only that every campaign agrees", seed)
	case !equal:
		rep.note("the trajectory differs from the golden trajectory of campaign seed %d", seed)
		return failMismatch
	default:
		rep.note("the trajectory equals the golden trajectory of campaign seed %d", seed)
	}
	return ""
}

// traceOnline runs one more campaign with the flow seams hooked:
//
//	flow.<stage>_ms   each stage of a flow run (placement, cts, route,
//	                  sta, power, signoff), median per run
//	flow.run_ms       one whole flow run, median
//	online.nonflow_s  Iterate − Σ flow runs of the iteration: propose,
//	                  insight extraction and the MDPO/PPO update, median
//	core.propose_ms   NewDecoder(iv).BeamSearch(K) replayed right after
//	                  each update, on the weights it just changed
//	flow.runs         flow runs per iteration
//	online.failures   proposals whose flow run failed, over the campaign
//
// flow.route_ms moves latency_p50_ms (online_iter_s) on online most of
// all, moves table4_s on offline a little, and moves nothing on serve.
func traceOnline(rep *report, st *onlineState, t *tally, want []iterationGolden, untracedMs float64) error {
	rec := newRecorder()
	hooks := newFlowHooks(rec)
	before := parseExposition(strings.NewReader(obs.Default().Exposition()))
	ph := startPhase()
	c, err := runCampaign(st, onlineSeed, hooks, rec)
	if err != nil {
		return fmt.Errorf("traced campaign: %w", err)
	}
	res := ph.end()
	after := parseExposition(strings.NewReader(obs.Default().Exposition()))
	for i := range c.traj {
		if sameJSON(want[i], c.traj[i]) {
			t.record("")
		} else {
			rep.note("traced iteration %d differs from the untraced campaign", i)
			t.record(failMismatch)
		}
	}
	for _, s := range flow.Stages() {
		rep.layer("flow."+s+"_ms", median0(rec.durations("flow."+s)))
	}
	runs := rec.durations("flow.run")
	rep.layer("flow.run_ms", median(runs))
	n := float64(len(c.iters))
	rep.layer("flow.runs", float64(len(runs))/n)
	failures := 0
	for _, g := range c.traj {
		failures += g.Failures
	}
	rep.layer("online.failures", float64(failures))

	// Per iteration: flow time inside it, and what is left.
	flowMs := make([]float64, len(c.iters))
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Name == "flow.run" {
			flowMs[s.Op] += s.Dur
		}
	}
	rec.mu.Unlock()
	propose := rec.durations("core.propose")
	nonflow := make([]float64, len(c.iters))
	rest := make([]float64, len(c.iters))
	for i, it := range c.iters {
		nonflow[i] = it - flowMs[i]
		rest[i] = nonflow[i] - propose[i]
	}
	rep.layer("online.nonflow_s", median(nonflow)/1000)
	rep.layer("core.propose_ms", median(propose))
	// Less the benchmark's own replays of the proposal decode.
	sessions := after["insightalign_beam_sessions_total"] - before["insightalign_beam_sessions_total"]
	rep.layer("core.beam_sessions", (sessions-float64(len(propose)))/n)
	// The update and insight extraction are not timed on their own.
	rep.layer("trace.unattributed_ms", median(rest))
	rep.layer("trace.overhead_pct", 100*(median(c.iters)-untracedMs)/untracedMs)
	rep.gc(res, len(c.iters))
	rep.spans = rec
	return nil
}

// median0 is the median, or 0 when a stage never ran.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

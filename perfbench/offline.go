package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/dataset"
	"insightalign/internal/experiments"
	"insightalign/internal/nn"
	"insightalign/internal/obs"
	"insightalign/internal/recipe"
	"insightalign/internal/tensor"
)

// The offline workload is the Table IV protocol, experiments.Env.RunTable4:
// 4-fold cross-validation over the 17 designs, margin-DPO alignment of
// each fold with the paper's per-pair Algorithm 1 schedule, K=5
// BeamSearchBatch for each held-out design, and a flow run for each of the
// 85 recommendations. Set-up builds the archive the folds train on (suite
// scale 0.1, 24 points per design) from the seed. The tensor tape, nn.Adam
// and core training do nearly all the work here and none in the serving
// workloads. One op is one Table IV run.
const (
	offlineScale  = 0.1
	offlinePoints = 24
	microPairs    = 200 // pairs replayed through the tape API when traced
)

func offlineConfig(seed int64) experiments.Config {
	c := experiments.Quick()
	c.Train.Epochs = 2
	c.Train.MaxPairsPerDesign = 60
	c.Seed = seed
	return c
}

func setupOffline(seed int64) (*experiments.Env, error) {
	opts := dataset.DefaultBuildOptions()
	opts.Scale = offlineScale
	opts.PointsPerDesign = offlinePoints
	opts.Seed = seed
	ds, err := dataset.Build(opts)
	if err != nil {
		return nil, err
	}
	return experiments.NewEnv(ds, offlineConfig(seed))
}

// alignCounter sums the EpochStats that core.TrainOptions.Progress
// reports over every fold of a run.
type alignCounter struct {
	pairs int
	loop  time.Duration
	zero  float64 // zero-loss forward passes
}

func (a *alignCounter) progress(_ int, es core.EpochStats) {
	a.pairs += es.Pairs
	a.loop += es.Duration
	a.zero += es.ZeroLossFrac * float64(es.Pairs)
}

func runOffline(cfg runConfig) (*report, error) {
	setupS, env, err := medianSetup(setupRepeats, func() (*experiments.Env, error) {
		return setupOffline(cfg.seed)
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := newReport(cfg)
	rep.setup = setupS
	t := newTally()

	var (
		lat   []float64
		first []experiments.Table4Row
		ac    alignCounter
		win   float64
	)
	env.Cfg.Train.Progress = ac.progress
	ph := startPhase()
	stop := time.Now().Add(cfg.seconds)
	for len(lat) == 0 || time.Now().Before(stop) {
		t0 := time.Now()
		t4, err := env.RunTable4()
		if err != nil {
			return nil, fmt.Errorf("table IV: %w", err)
		}
		lat = append(lat, msSince(t0, time.Now()))
		win = t4.MeanWinPct()
		if first == nil {
			first = t4.Rows
			t.record(checkTable4(rep, cfg.seed, t4.Rows))
		} else if !sameJSON(first, t4.Rows) {
			t.record(failMismatch)
		} else {
			t.record("")
		}
	}
	res := ph.end()
	env.Cfg.Train.Progress = nil
	rows := float64(len(first) * len(lat))
	rep.endToEnd(res, len(lat), percentile(lat, 50), percentile(lat, 99), rows/res.wall.Seconds(), res.cpuMsPerOp(len(lat)))
	rep.info("table4_s", median(lat)/1000, "s")
	rep.info("align_pairs_per_s", float64(ac.pairs)/ac.loop.Seconds(), "1/s")
	rep.info("win_pct", win, "%")
	if cfg.trace {
		if err := traceOffline(rep, env, cfg, t, first, median(lat)); err != nil {
			return nil, err
		}
	}
	rep.t = t
	return rep, nil
}

// checkTable4 checks the rows of a seed's first Table IV run against the
// golden rows of that seed and returns the op's failure class.
func checkTable4(rep *report, seed int64, rows []experiments.Table4Row) string {
	if len(rows) != 17 {
		rep.note("table IV has %d rows, want 17", len(rows))
		return failMismatch
	}
	found, equal, err := goldenCheck("offline", seed, rows)
	switch {
	case err != nil:
		rep.note("golden rows: %v", err)
		return failMismatch
	case !found:
		rep.note("no golden Table IV rows for seed %d: checked only that every run agrees", seed)
	case !equal:
		rep.note("table IV rows differ from the golden rows of seed %d", seed)
		return failMismatch
	default:
		rep.note("table IV rows equal the golden rows of seed %d", seed)
	}
	return ""
}

// traceOffline replays RunTable4 call by call with a span around each
// public call it is made of, then replays a fixed sample of pairs through
// the tape API:
//
//	core.align_s            Model.AlignmentTrain, summed over the folds
//	core.align_loop_s       Σ EpochStats.Duration, from TrainOptions.Progress
//	core.pair_build_s       align − loop: pair building and bookkeeping
//	core.beam_batch_ms      Model.BeamSearchBatch, summed over the folds
//	experiments.evaluate_s  Env.EvaluateSets, summed over the designs
//	core.align_alloc_mb     bytes allocated inside AlignmentTrain
//	tensor.logprob_us       one Model.LogProb (tape forward)
//	tensor.backward_us      one Tensor.Backward of a pair loss
//	nn.adam_step_us         one Adam.Step
//	core.pairs              pairs trained on, exact
//	core.zero_loss_frac     share of forward passes that yield no gradient
//
// These move table4_s (latency_p50_ms), align_pairs_per_s and
// alloc_mb_per_op on offline; through the policy update the tensor and nn
// figures also move latency_p50_ms on online. They move nothing on the
// serving workloads. The replay must reproduce RunTable4's rows exactly.
func traceOffline(rep *report, env *experiments.Env, cfg runConfig, t *tally, want []experiments.Table4Row, untracedMs float64) error {
	rec := newRecorder()
	before := parseExposition(strings.NewReader(obs.Default().Exposition()))
	ph := startPhase()
	t0 := time.Now()
	rows, ac, err := replayTable4(env, rec)
	if err != nil {
		return err
	}
	wall := rec.add("experiments.table4", "", 0, t0)
	res := ph.end()
	after := parseExposition(strings.NewReader(obs.Default().Exposition()))
	if sameJSON(rows, want) {
		t.record("")
	} else {
		rep.note("the traced replay's Table IV rows differ from RunTable4's")
		t.record(failMismatch)
	}
	alignMs := sum(rec.durations("core.align"))
	beamMs := sum(rec.durations("core.beam_batch"))
	evalMs := sum(rec.durations("experiments.evaluate"))
	rep.layer("core.align_s", alignMs/1000)
	rep.layer("core.align_loop_s", ac.loop.Seconds())
	rep.layer("core.pair_build_s", alignMs/1000-ac.loop.Seconds())
	rep.layer("core.beam_batch_ms", beamMs)
	rep.layer("experiments.evaluate_s", evalMs/1000)
	rep.layer("core.align_alloc_mb", sum(rec.durations("core.align_alloc")))
	rep.layer("core.pairs", float64(ac.pairs))
	rep.layer("core.zero_loss_frac", ac.zero/float64(ac.pairs))
	rep.layer("core.beam_sessions", after["insightalign_beam_sessions_total"]-before["insightalign_beam_sessions_total"])
	rep.layer("trace.unattributed_ms", wall-alignMs-beamMs-evalMs)
	rep.layer("trace.overhead_pct", 100*(wall-untracedMs)/untracedMs)
	rep.gc(res, 1)

	lp, bw, st := microReplay(env, cfg.seed, rec)
	rep.layer("tensor.logprob_us", lp)
	rep.layer("tensor.backward_us", bw)
	rep.layer("nn.adam_step_us", st)
	rep.spans = rec
	return nil
}

// replayTable4 makes the same public calls as experiments.Env.RunTable4,
// in the same order and with the same seeds, timing each. The allocation
// of each AlignmentTrain is recorded as a "core.align_alloc" span whose
// duration field holds MB.
func replayTable4(e *experiments.Env, rec *recorder) ([]experiments.Table4Row, alignCounter, error) {
	var (
		rows []experiments.Table4Row
		ac   alignCounter
	)
	for fi, holdout := range e.Data.Folds(e.Cfg.Folds, e.Cfg.Seed) {
		train, _ := e.Data.Split(holdout)
		mcfg := core.DefaultConfig()
		mcfg.Seed = e.Cfg.Seed + int64(fi)
		model, err := core.New(mcfg)
		if err != nil {
			return nil, ac, err
		}
		topt := e.Cfg.Train
		topt.Seed = e.Cfg.Seed + int64(fi)*31
		topt.Progress = ac.progress
		before := readUsage()
		t0 := time.Now()
		if _, err := model.AlignmentTrain(train, topt); err != nil {
			return nil, ac, fmt.Errorf("fold %d training: %w", fi, err)
		}
		rec.add("core.align", "experiments.table4", fi, t0)
		after := readUsage()
		rec.mu.Lock()
		rec.spans = append(rec.spans, span{Name: "core.align_alloc", Parent: "core.align", Op: fi,
			Dur: float64(after.totalAlloc-before.totalAlloc) / 1e6})
		rec.mu.Unlock()

		ivs := make([][]float64, len(holdout))
		for di, design := range holdout {
			iv, ok := e.Data.InsightOf(design)
			if !ok {
				return nil, ac, fmt.Errorf("no insight for %s", design)
			}
			ivs[di] = iv.Slice()
		}
		t0 = time.Now()
		cands := model.BeamSearchBatch(ivs, e.Cfg.BeamK)
		rec.add("core.beam_batch", "experiments.table4", fi, t0)
		for di, design := range holdout {
			sets := make([]recipe.Set, len(cands[di]))
			for i, c := range cands[di] {
				sets[i] = c.Set
			}
			t0 = time.Now()
			evals, err := e.EvaluateSets(design, sets, e.Cfg.Seed*1009+int64(fi))
			if err != nil {
				return nil, ac, err
			}
			rec.add("experiments.evaluate", "experiments.table4", fi, t0)
			rows = append(rows, table4Row(e, design, evals))
		}
	}
	sort.Slice(rows, func(i, j int) bool { return designNum(rows[i].Design) < designNum(rows[j].Design) })
	return rows, ac, nil
}

// table4Row scores one held-out design as RunTable4 does: the best of its
// K evaluated recommendations against the archive's points.
func table4Row(e *experiments.Env, design string, evals []experiments.EvalPoint) experiments.Table4Row {
	best := evals[0]
	for _, ev := range evals[1:] {
		if ev.QoR > best.QoR {
			best = ev
		}
	}
	known := e.Data.PointsOf(design)
	wins := 0
	for _, kp := range known {
		if best.QoR > kp.QoR {
			wins++
		}
	}
	bk, _ := e.Data.BestKnown(design)
	return experiments.Table4Row{
		Design:         design,
		BestKnownTNS:   bk.Metrics.TNSns,
		BestKnownPower: bk.Metrics.PowerMW,
		BestKnownQoR:   bk.QoR,
		RecTNS:         best.Metrics.TNSns,
		RecPower:       best.Metrics.PowerMW,
		RecQoR:         best.QoR,
		WinPct:         100 * float64(wins) / float64(len(known)),
	}
}

func designNum(name string) int {
	n := 0
	fmt.Sscanf(name, "D%d", &n)
	return n
}

// microReplay runs a fixed seeded sample of archive pairs through the
// public tape API the way Algorithm 1 does — two Model.LogProb forwards,
// the margin hinge, Tensor.Backward, Adam.Step — and returns the median
// microseconds of one forward, one backward and one optimizer step.
func microReplay(e *experiments.Env, seed int64, rec *recorder) (logprobUs, backwardUs, stepUs float64) {
	mcfg := core.DefaultConfig()
	mcfg.Seed = seed
	model, err := core.New(mcfg)
	if err != nil {
		return math.NaN(), math.NaN(), math.NaN()
	}
	adam := nn.NewAdam(model.Params(), e.Cfg.Train.LR)
	adam.ClipNorm = e.Cfg.Train.ClipNorm
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < microPairs; i++ {
		pts := e.Data.PointsOf(e.Data.Designs[rng.Intn(len(e.Data.Designs))])
		a, b := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
		if a.QoR < b.QoR {
			a, b = b, a
		}
		iv := a.Insight.Slice()
		adam.ZeroGrad()
		t0 := time.Now()
		lw := model.LogProb(iv, a.Set.Bits())
		rec.add("tensor.logprob", "core.align", i, t0)
		t0 = time.Now()
		ll := model.LogProb(iv, b.Set.Bits())
		rec.add("tensor.logprob", "core.align", i, t0)
		loss := tensor.Scalar(e.Cfg.Train.Lambda * (a.QoR - b.QoR)).Sub(lw.Sub(ll)).Hinge()
		if loss.Item() <= 0 {
			continue
		}
		t0 = time.Now()
		loss.Backward()
		rec.add("tensor.backward", "core.align", i, t0)
		t0 = time.Now()
		adam.Step()
		rec.add("nn.adam_step", "core.align", i, t0)
	}
	return 1000 * median(rec.durations("tensor.logprob")),
		1000 * median(rec.durations("tensor.backward")),
		1000 * median(rec.durations("nn.adam_step"))
}

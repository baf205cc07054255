package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"pacds/internal/cds"
	"pacds/internal/energy"
	"pacds/internal/sim"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// paper-lifetime: sim.Run trials in the paper's configuration (connected
// start, 8-direction mobility, E = 100, d' = 1) over N in {20, ..., 100}
// x ID/ND/EL1/EL2 x const/linear/quadratic drain, lifeSeeds trial seeds
// per configuration. One op is one trial; two workers run trials as the
// experiments engine does, cycling through the fixed trial list.
const (
	lifeSeeds        = 16
	lifeSalt  uint64 = 0x11fe_0000_0000_0001
	// lifeMaxIntervals is sim.Run's default cap on a trial's length.
	lifeMaxIntervals = 100000
)

var (
	lifeNs       = []int{20, 40, 60, 80, 100}
	lifePolicies = []cds.Policy{cds.ID, cds.ND, cds.EL1, cds.EL2}
	lifeDrains   = []string{"const", "linear", "quadratic"}
)

func lifeConfigs() int { return len(lifeNs) * len(lifePolicies) * len(lifeDrains) }

func lifeCycle() int { return lifeConfigs() * lifeSeeds }

// lifeTrial returns the configuration of trial i of the cycle: the
// configuration index runs fastest, so every prefix of the stream is
// spread evenly over N, policy and drain.
func lifeTrial(seed uint64, i int) sim.Config {
	i %= lifeCycle()
	c, k := i%lifeConfigs(), i/lifeConfigs()
	n := lifeNs[c%len(lifeNs)]
	p := lifePolicies[(c/len(lifeNs))%len(lifePolicies)]
	drain, err := energy.ByName(lifeDrains[c/(len(lifeNs)*len(lifePolicies))])
	if err != nil {
		panic(err) // the names above are energy's own
	}
	return sim.PaperConfig(n, p, drain, xrand.Mix(streamSeed(seed, lifeSalt), uint64(c), uint64(k)))
}

// trialResult is what a trial's output check compares: the lifetime and
// the gateway count of every interval.
type trialResult struct {
	intervals int
	counts    []int
}

func (r trialResult) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.intervals, r.counts)
	return h.Sum64()
}

// lifeRecord is one timed op's result, compacted outside the op's timing
// so the records held do not grow the heap with the run's length.
type lifeRecord struct {
	trial     int
	intervals int
	digest    uint64
	bySimRun  bool // produced by sim.Run rather than the replay
	err       error
}

// replayTrial runs a trial through the public calls sim.Run makes, in
// sim.Run's order and with its random streams, timing each call into a
// span when rec is non-nil. verify additionally checks every interval's
// gateway set with cds.VerifyCDS.
func replayTrial(cfg sim.Config, rec *recorder, op int, verify bool) (trialResult, error) {
	var res trialResult
	rng := xrand.New(cfg.Seed)
	placeRNG := rng.Split(1)
	moveRNG := rng.Split(2)
	var inst *udg.Instance
	var err error
	rec.time(op, "udg.connected_start", func() {
		inst, err = udg.RandomConnected(udg.Config{N: cfg.N, Field: cfg.Field, Radius: cfg.Radius}, placeRNG, 5000)
	})
	if err != nil {
		return res, err
	}
	levels := energy.NewLevels(cfg.N, cfg.InitialEnergy)
	el := make([]float64, cfg.N)
	for interval := 1; ; interval++ {
		for v := range el {
			el[v] = levels.Level(v)
		}
		var cr *cds.Result
		rec.time(op, "cds.compute", func() { cr, err = cds.Compute(inst.Graph, cfg.Policy, el) })
		if err != nil {
			return res, err
		}
		if verify {
			if err := cds.VerifyCDS(inst.Graph, cr.Gateway); err != nil {
				return res, fmt.Errorf("interval %d: %w", interval, err)
			}
		}
		// sim.Run counts disconnected intervals; the replay makes the same call.
		rec.time(op, "graph.is_connected", func() { inst.Graph.IsConnected() })
		res.counts = append(res.counts, cr.NumGateways())
		rec.time(op, "energy.drain", func() { energy.ApplyInterval(levels, cr.Gateway, cfg.Drain, cfg.NonGatewayDrain) })
		if levels.AnyDead() || interval >= lifeMaxIntervals {
			res.intervals = interval
			return res, nil
		}
		rec.time(op, "mobility.step", func() { cfg.Mobility.Step(inst.Positions, cfg.Field, moveRNG) })
		rec.time(op, "udg.rebuild", func() { inst.Rebuild() })
	}
}

func simTrial(cfg sim.Config) (trialResult, error) {
	m, err := sim.Run(cfg)
	if err != nil {
		return trialResult{}, err
	}
	return trialResult{m.Intervals, m.GatewayCounts}, nil
}

// lifeBench is one paper-lifetime run: the seed and every instance whose
// timed trials the check compares with the replay.
type lifeBench struct {
	seed  uint64
	insts []*lifeInst
	ref   *lifeRef // set by check
}

func startLifetime(cfg *config, out *outcome) (bench, error) {
	for k, v := range map[string]any{
		"workers": clientCount(), "trials_per_cycle": lifeCycle(), "seeds_per_config": lifeSeeds,
		"ns": lifeNs, "drains": lifeDrains,
	} {
		out.meta[k] = v
	}
	return &lifeBench{seed: cfg.seed}, nil
}

// lifeInst runs trials from clientCount workers: through sim.Run, or, when
// traced, through replayTrial with a span around each call.
type lifeInst struct {
	b       *lifeBench
	records [][]lifeRecord
	recs    []*recorder // traced only
	last    []trialResult
	errs    []error
}

// setup runs the warm-up list: one trial of every configuration.
func (b *lifeBench) setup(traced bool) (instance, error) {
	clients := clientCount()
	li := &lifeInst{b: b, records: make([][]lifeRecord, clients), last: make([]trialResult, clients), errs: make([]error, clients)}
	if traced {
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			li.recs = append(li.recs, &recorder{t0: t0})
		}
	}
	errs := make([]error, lifeConfigs())
	parallel(lifeConfigs(), func(i int) { _, errs[i] = simTrial(lifeTrial(b.seed, i)) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	b.insts = append(b.insts, li)
	return li, nil
}

func (li *lifeInst) clients() int { return len(li.records) }

func (li *lifeInst) op(c, i int) bool {
	cfg := lifeTrial(li.b.seed, i)
	if li.recs != nil {
		li.recs[c].time(i, "op", func() { li.last[c], li.errs[c] = replayTrial(cfg, li.recs[c], i, false) })
	} else {
		li.last[c], li.errs[c] = simTrial(cfg)
	}
	return li.errs[c] == nil
}

func (li *lifeInst) post(c, i int, ok bool) {
	li.records[c] = append(li.records[c], lifeRecord{
		trial: i % lifeCycle(), intervals: li.last[c].intervals, digest: li.last[c].digest(),
		bySimRun: li.recs == nil, err: li.errs[c],
	})
}

func (li *lifeInst) pid() int     { return 0 }
func (li *lifeInst) stop() error  { return nil }
func (li *lifeInst) begin() error { return nil }
func (li *lifeInst) end() error   { return nil }

// layers reports the replayed calls' spans and the cycle's mean lifetime.
func (li *lifeInst) layers(out *outcome) map[string]metric {
	var spans []span
	for _, r := range li.recs {
		spans = append(spans, r.spans...)
	}
	m := layerSet{}
	m.stage("cds.compute_us_p50", spans, "cds.compute", 50, "us")
	m.stage("udg.rebuild_us_p50", spans, "udg.rebuild", 50, "us")
	m.stage("mobility.step_us_p50", spans, "mobility.step", 50, "us")
	m.stage("energy.drain_us_p50", spans, "energy.drain", 50, "us")
	m.stage("udg.connected_start_ms_p50", spans, "udg.connected_start", 50, "ms")
	m["sim.lifetime_intervals"] = metric{li.b.ref.lifetime, "intervals"}
	if share, ok := reconcile(spans, out); ok {
		m["obs.stage_sum_ratio"] = metric{share, "ratio"}
	}
	out.spans = firstSpans(spans)
	return m
}

func (b *lifeBench) check(out *outcome) float64 {
	b.ref = checkLifetime(b.seed, b.insts, out)
	return b.ref.gatewayRatio
}

// lifeRef is the checked result of every trial in the cycle.
type lifeRef struct {
	results      []trialResult
	digest       uint64
	lifetime     float64
	gatewayRatio float64
}

// checkLifetime replays every trial of the cycle outside the timed phase
// through sim.Run's public calls, checking every interval's gateways with
// cds.VerifyCDS. It requires every timed op to match the replay for its
// trial, and sim.Run to match it for every trial of the cycle (running
// sim.Run here for trials no timed sim.Run op covered). For a seed in
// pinnedLifeDigests the cycle's digest must also match the pin.
func checkLifetime(seed uint64, insts []*lifeInst, out *outcome) *lifeRef {
	defer out.checked(time.Now())
	n := lifeCycle()
	ref := &lifeRef{results: make([]trialResult, n)}
	var mu sync.Mutex
	parallel(n, func(i int) {
		want, err := replayTrial(lifeTrial(seed, i), nil, i, true)
		if err != nil {
			mu.Lock()
			out.problem("trial %d: replay: %v", i, err)
			mu.Unlock()
		}
		ref.results[i] = want
	})
	bySimRun := make([]bool, n)
	for _, li := range insts {
		for _, recs := range li.records {
			for _, r := range recs {
				want := ref.results[r.trial]
				switch {
				case r.err != nil:
					out.problem("trial %d: %v", r.trial, r.err)
				case r.digest != want.digest():
					out.problem("trial %d: timed op lasted %d intervals, the checked replay %d", r.trial, r.intervals, want.intervals)
				case r.bySimRun:
					bySimRun[r.trial] = true
				}
			}
		}
	}
	parallel(n, func(i int) {
		if bySimRun[i] {
			return
		}
		got, err := simTrial(lifeTrial(seed, i))
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			out.problem("trial %d: sim.Run: %v", i, err)
		} else if got.digest() != ref.results[i].digest() {
			out.problem("trial %d: sim.Run lasted %d intervals, the replay of its calls %d", i, got.intervals, ref.results[i].intervals)
		}
	})
	h := fnv.New64a()
	for i, r := range ref.results {
		fmt.Fprint(h, r.digest(), " ")
		cfg := lifeTrial(seed, i)
		ref.lifetime += float64(r.intervals) / float64(n)
		sum := 0
		for _, c := range r.counts {
			sum += c
		}
		if len(r.counts) > 0 {
			ref.gatewayRatio += float64(sum) / float64(len(r.counts)) / float64(cfg.N) / float64(n)
		}
	}
	ref.digest = h.Sum64()
	if pin, ok := pinnedLifeDigests[seed]; ok && pin != ref.digest {
		out.problem("trial results digest %016x, pinned %016x for seed %d", ref.digest, pin, seed)
	}
	out.meta["trial_digest"] = fmt.Sprintf("%016x", ref.digest)
	out.meta["lifetime_intervals"] = ref.lifetime
	return ref
}

// pinnedLifeDigests pins the cycle's per-trial lifetimes and gateway
// counts for seeds 1-10 and the held-out seed, so a change to the
// simulation's output fails the run even when it is self-consistent.
var pinnedLifeDigests = map[uint64]uint64{
	1:    0x4cf27da1996257db,
	2:    0x6579e2457d163e7a,
	3:    0x1cd572683c8eb213,
	4:    0x397327bc8c7e535d,
	5:    0x6b83f1af58a3671c,
	6:    0x667f6e9e3b28b62a,
	7:    0x3b43bc49293786ef,
	8:    0x60a1e2ab612ec997,
	9:    0xb1c40965b9f1a27c,
	10:   0x7692d096cd3496b0,
	7919: 0xea3da63fafa13f5c,
}

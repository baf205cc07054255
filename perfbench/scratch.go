package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"pacds/internal/cds"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// scratch-100k: the library pipeline "positions in, gateways out" at
// N = 100,000 and the paper's density (field side 10*sqrt(N), r = 25,
// mean degree about 19.6), ND policy, compute workers = nproc. One op is
// udg.BuildParallel -> cds.MarkParallelInto -> cds.ApplyRulesParallelInto
// on the next of scratchDeployments seeded deployments, cycled; it never
// touches server or topo.
const (
	scratchN                  = 100000
	scratchRadius             = 25.0
	scratchDeployments        = 3
	scratchSalt        uint64 = 0x5c4a_7c40_0000_0001
)

var scratchPolicy = cds.ND

type scratchInputs struct {
	field     geom.Rect
	positions [][]geom.Point
	workers   int
}

func genScratch(seed uint64) *scratchInputs {
	side := 10 * math.Sqrt(scratchN)
	in := &scratchInputs{field: geom.Square(side), workers: runtime.NumCPU()}
	cfg := udg.Config{N: scratchN, Field: in.field, Radius: scratchRadius}
	for k := 0; k < scratchDeployments; k++ {
		in.positions = append(in.positions, udg.RandomPositions(cfg, xrand.New(xrand.Mix(streamSeed(seed, scratchSalt), uint64(k)))))
	}
	return in
}

// scratchState is the pipeline's reusable output buffers.
type scratchState struct {
	marked, gateway []bool
}

func newScratchState() *scratchState {
	return &scratchState{marked: make([]bool, scratchN), gateway: make([]bool, scratchN)}
}

// op runs the pipeline on deployment k, recording a span per stage when
// rec is non-nil.
func (in *scratchInputs) op(st *scratchState, k, opIdx int, rec *recorder) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	rec.time(opIdx, "op", func() {
		rec.time(opIdx, "udg.build", func() { g = udg.BuildParallel(in.positions[k], in.field, scratchRadius, in.workers) })
		rec.time(opIdx, "cds.mark", func() { cds.MarkParallelInto(g, st.marked, in.workers) })
		rec.time(opIdx, "cds.rules", func() {
			err = cds.ApplyRulesParallelInto(g, scratchPolicy, st.marked, nil, in.workers, st.gateway)
		})
	})
	return g, err
}

// digestBools fingerprints a membership slice.
func digestBools(b []bool) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 4096)
	for i, v := range b {
		if v {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		if len(buf) == cap(buf) || i == len(b)-1 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	return h.Sum64()
}

// scratchBench is one scratch-100k run: the deployments and the gateway
// digest of every timed op, by deployment, for the cross-cycle check.
type scratchBench struct {
	in      *scratchInputs
	digests [scratchDeployments][]uint64
	errs    int
	counts  *scratchCounts // set by check
}

func startScratch(cfg *config, out *outcome) (bench, error) {
	in := genScratch(cfg.seed)
	for k, v := range map[string]any{
		"n": scratchN, "radius": scratchRadius, "field_side": in.field.Width(),
		"policy": scratchPolicy.String(), "compute_workers": in.workers, "deployments": scratchDeployments,
	} {
		out.meta[k] = v
	}
	return &scratchBench{in: in}, nil
}

// scratchInst is the pipeline's reusable buffers; a traced one records a
// span around each stage.
type scratchInst struct {
	b   *scratchBench
	st  *scratchState
	rec *recorder
}

// setup allocates the pipeline buffers and runs the warm-up list: one op
// on the first deployment.
func (b *scratchBench) setup(traced bool) (instance, error) {
	si := &scratchInst{b: b, st: newScratchState()}
	if traced {
		si.rec = &recorder{t0: time.Now()}
	}
	_, err := b.in.op(si.st, 0, -1, nil)
	return si, err
}

func (si *scratchInst) clients() int { return 1 }

func (si *scratchInst) op(_, i int) bool {
	_, err := si.b.in.op(si.st, i%scratchDeployments, i, si.rec)
	return err == nil
}

func (si *scratchInst) post(_, i int, ok bool) {
	if !ok {
		si.b.errs++
		return
	}
	k := i % scratchDeployments
	si.b.digests[k] = append(si.b.digests[k], digestBools(si.st.gateway))
}

func (si *scratchInst) pid() int     { return 0 }
func (si *scratchInst) stop() error  { return nil }
func (si *scratchInst) begin() error { return nil }
func (si *scratchInst) end() error   { return nil }

// layers reports the stage spans, the Rule 1 / Rule 2 split on every
// deployment, and the exact work counts of the checked reference.
func (si *scratchInst) layers(out *outcome) map[string]metric {
	m := layerSet{}
	spans := si.rec.spans
	m.stage("udg.build_ms_p50", spans, "udg.build", 50, "ms")
	m.stage("cds.mark_ms_p50", spans, "cds.mark", 50, "ms")
	m.stage("cds.rules_ms_p50", spans, "cds.rules", 50, "ms")
	c := si.b.counts
	m["graph.edges"] = metric{c.edges, "count"}
	m["cds.marked"] = metric{c.marked, "count"}
	m["cds.gateways"] = metric{c.gateways, "count"}
	if share, ok := reconcile(spans, out); ok {
		m["obs.stage_sum_ratio"] = metric{share, "ratio"}
	}
	r1, r2 := splitRules(si.b.in, si.st, c, out)
	m.durs("cds.rule1_ms_p50", r1, 50, "ms")
	m.durs("cds.rule2_ms_p50", r2, 50, "ms")
	out.spans = firstSpans(spans)
	return m
}

// scratchCounts are the checked reference of one deployment cycle: its
// exact work counts and each deployment's gateway digest.
type scratchCounts struct {
	edges, marked, gateways, gatewayRatio float64
	digests                               [scratchDeployments]uint64
}

// check computes each deployment's reference on the sequential path
// (udg.Build, cds.Compute), requires it to pass cds.VerifyCDS, and
// requires every timed op to have reproduced its gateway set exactly.
func (b *scratchBench) check(out *outcome) float64 {
	defer out.checked(time.Now())
	c := &scratchCounts{}
	refs := make([]*cds.Result, scratchDeployments)
	graphs := make([]*graph.Graph, scratchDeployments)
	errs := make([]error, scratchDeployments)
	parallel(scratchDeployments, func(k int) {
		g := udg.Build(b.in.positions[k], b.in.field, scratchRadius)
		if refs[k], errs[k] = cds.Compute(g, scratchPolicy, nil); errs[k] == nil {
			errs[k] = cds.VerifyCDS(g, refs[k].Gateway)
		}
		graphs[k] = g
	})
	for k, ref := range refs {
		if errs[k] != nil {
			out.problem("deployment %d: reference: %v", k, errs[k])
			continue
		}
		c.digests[k] = digestBools(ref.Gateway)
		gw := float64(ref.NumGateways())
		c.edges += float64(graphs[k].NumEdges()) / scratchDeployments
		c.marked += float64(cds.CountGateways(ref.Marked)) / scratchDeployments
		c.gateways += gw / scratchDeployments
		c.gatewayRatio += gw / scratchN / scratchDeployments
	}
	if b.errs > 0 {
		out.problem("%d pipeline ops returned an error", b.errs)
	}
	for k, ds := range b.digests {
		for i, d := range ds {
			if d != c.digests[k] {
				out.problem("deployment %d, cycle %d: gateway digest %016x, want %016x", k, i, d, c.digests[k])
			}
		}
	}
	out.meta["gateway_digests"] = fmt.Sprintf("%016x", c.digests)
	b.counts = c
	return c.gatewayRatio
}

// splitRules times cds.ApplyRule1Only, then cds.ApplyRule2Only on its
// output, twice on every deployment, and requires the result to equal
// the reference gateway set.
func splitRules(in *scratchInputs, st *scratchState, c *scratchCounts, out *outcome) (rule1, rule2 []time.Duration) {
	for rep := 0; rep < 2; rep++ {
		for k := 0; k < scratchDeployments; k++ {
			g := udg.BuildParallel(in.positions[k], in.field, scratchRadius, in.workers)
			cds.MarkParallelInto(g, st.marked, in.workers)
			t0 := time.Now()
			after1, err := cds.ApplyRule1Only(g, scratchPolicy, st.marked, nil)
			t1 := time.Now()
			var after2 []bool
			if err == nil {
				after2, err = cds.ApplyRule2Only(g, scratchPolicy, after1, nil)
			}
			if err != nil {
				out.problem("deployment %d: split rules: %v", k, err)
				continue
			}
			rule1, rule2 = append(rule1, t1.Sub(t0)), append(rule2, time.Since(t1))
			if d := digestBools(after2); d != c.digests[k] {
				out.problem("deployment %d: Rule 1 then Rule 2 gives digest %016x, the reference %016x", k, d, c.digests[k])
			}
		}
	}
	return rule1, rule2
}

// stageTolerance is the largest share of a library op's time its stage
// spans may leave uncovered: the glue between the calls.
const stageTolerance = 0.05

// reconcile checks that, for the median op, the stage spans sum to within
// stageTolerance of the op's own span, and returns that median share;
// false when no op was traced.
func reconcile(spans []span, out *outcome) (float64, bool) {
	tol := stageTolerance
	opDur, stages := map[int]int64{}, map[int]int64{}
	for _, s := range spans {
		if s.Name == "op" {
			opDur[s.Op] = s.Dur
		} else {
			stages[s.Op] += s.Dur
		}
	}
	var shares []float64
	for op, d := range opDur {
		if d > 0 {
			shares = append(shares, float64(stages[op])/float64(d))
		}
	}
	if len(shares) == 0 {
		return 0, false
	}
	share := medianFloat(shares)
	if share < 1-tol || share > 1 {
		out.problem("reconciliation: stage spans cover %.3f of op latency, want within %.0f%%", share, tol*100)
	}
	return share, true
}

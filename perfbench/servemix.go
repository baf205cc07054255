package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/maphash"
	"net/http"
	"slices"
	"sync"
	"time"

	"pacds/internal/cds"
	"pacds/internal/graph"
	"pacds/internal/load"
	"pacds/internal/metrics"
	"pacds/internal/obs"
	"pacds/internal/server"
	"pacds/internal/xrand"
)

// serve-mix: httpClients closed-loop HTTP clients against one cdsd child.
//
// The stream is built from frames of mixFrame ops: 18 computes that
// alternate between a warm pool and a cold pool, then 2 verifies, so the
// mix is 9:1 compute:verify and half of all computes re-send a warm
// request. Pools are cycled round-robin, which is what fixes the cache
// behaviour: between two sends of one warm request come about
// 2*mixWarm other cached keys, well under cdsd's 1024-entry LRU, so warm
// requests are always hits; between two sends of one cold request come
// mixCold-1 other cold keys plus every warm key, more than the cache
// holds, so cold requests are always misses.
const (
	mixWarm     = 256
	mixCold     = 1024
	mixVerify   = 128
	mixVariants = 4 // energy variants per warm request, cycled
	mixFrame    = 20
	cdsdCache   = 1024 // cdsd's default -cache
)

// Request kinds of the serve-mix stream.
const (
	kindWarm = iota
	kindCold
	kindVerify
)

// Salts separating the three request pools drawn from one seed.
const (
	mixWarmSalt    uint64 = 0xbe9c_0000_0000_0001
	mixColdSalt    uint64 = 0xbe9c_0000_0000_0002
	mixVerifySalt  uint64 = 0xbe9c_0000_0000_0003
	mixVariantSalt uint64 = 0xbe9c_0000_0000_0004
)

// mixReq is one pooled request: its wire bodies and the generated inputs
// the output check recomputes the answer from.
type mixReq struct {
	req    *load.Request
	bodies [][]byte
}

type mixInputs struct {
	pools [3][]*mixReq // indexed by kind
}

// mixSlot maps op i of the stream to its request kind and the index of
// that kind's request within the stream.
func mixSlot(i int) (kind, idx int) {
	f, p := i/mixFrame, i%mixFrame
	switch {
	case p >= 18:
		return kindVerify, f*2 + p - 18
	case p%2 == 0:
		return kindWarm, f*9 + p/2
	default:
		return kindCold, f*9 + p/2
	}
}

// pick returns the pooled request op i sends and the body to send.
func (in *mixInputs) pick(i int) (kind, pool int, body []byte) {
	kind, idx := mixSlot(i)
	p := in.pools[kind]
	r := p[idx%len(p)]
	return kind, idx % len(p), r.bodies[(idx/len(p))%len(r.bodies)]
}

// genMix synthesizes the three pools with load.Generate on the paper's
// 100x100 field: N in {50, 100, 200}, r in {20, 25, 30}, the four rule
// policies. Request i of a pool is drawn from stratum i mod 36 of those
// axes, so every seed's pools hold the same number of requests of each
// size, radius and policy. The costliest stratum (N = 200, r = 30) has
// some 35 times the edges of the cheapest; drawn at random, its count in
// the cold pool would vary by about a tenth from seed to seed. Warm EL1/EL2 requests get mixVariants bodies whose
// energies differ from the generated integer levels by less than half of
// cdsd's 1.0 cache quantum, as a network recomputing within one update
// interval would send; variant 0 is the generated request itself.
func genMix(seed uint64) (*mixInputs, error) {
	specs := []struct {
		kind, n int
		opts    load.Options
	}{
		{kindWarm, mixWarm, load.Options{Seed: streamSeed(seed, mixWarmSalt), Mix: load.Mix{Compute: 1}}},
		{kindCold, mixCold, load.Options{Seed: streamSeed(seed, mixColdSalt), Mix: load.Mix{Compute: 1}}},
		{kindVerify, mixVerify, load.Options{Seed: streamSeed(seed, mixVerifySalt), Mix: load.Mix{Verify: 1}}},
	}
	in := &mixInputs{}
	for _, s := range specs {
		pool := make([]*mixReq, s.n)
		errs := make([]error, s.n)
		parallel(s.n, func(i int) {
			opts := s.opts
			opts.Axes = mixStratum(i)
			pool[i], errs[i] = genMixReq(seed, s.kind, opts, i)
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		in.pools[s.kind] = pool
	}
	return in, nil
}

// The serve-mix axes; mixStratum walks their product.
var (
	mixNs       = []int{50, 100, 200}
	mixRadii    = []float64{20, 25, 30}
	mixPolicies = []string{"ID", "ND", "EL1", "EL2"}
)

// mixStratum returns the single size, radius and policy of a pool's
// request i.
func mixStratum(i int) load.Axes {
	n, r, p := len(mixNs), len(mixRadii), len(mixPolicies)
	i %= n * r * p
	return load.Axes{Ns: []int{mixNs[i%n]}, Radii: []float64{mixRadii[i/n%r]}, Policies: []string{mixPolicies[i/(n*r)]}}
}

func genMixReq(seed uint64, kind int, opts load.Options, i int) (*mixReq, error) {
	r := &mixReq{req: load.Generate(opts, i)}
	if kind == kindVerify {
		b, err := json.Marshal(r.req.Verify)
		r.bodies = [][]byte{b}
		return r, err
	}
	variants := 1
	if kind == kindWarm {
		variants = mixVariants
	}
	for v := 0; v < variants; v++ {
		cr := *r.req.Compute
		if v > 0 && cr.Energy != nil {
			rng := xrand.New(xrand.Mix(streamSeed(seed, mixVariantSalt), uint64(i), uint64(v)))
			cr.Energy = slices.Clone(cr.Energy)
			for k := range cr.Energy {
				cr.Energy[k] += 0.8 * (rng.Float64() - 0.5)
			}
		}
		b, err := json.Marshal(&cr)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, b)
	}
	return r, nil
}

// mixRecorder keeps, per pooled request, one copy of every distinct
// response body, so the check can verify every response while decoding
// each distinct body once.
type mixRecorder struct {
	seed   maphash.Seed
	mu     sync.Mutex
	bodies map[mixKey][]byte
	status map[int]int // non-200 statuses seen, by code
}

type mixKey struct {
	kind, pool int
	hash       uint64
}

func newMixRecorder() *mixRecorder {
	return &mixRecorder{seed: maphash.MakeSeed(), bodies: map[mixKey][]byte{}, status: map[int]int{}}
}

func (r *mixRecorder) add(kind, pool int, body []byte) {
	k := mixKey{kind, pool, maphash.Bytes(r.seed, body)}
	r.mu.Lock()
	if _, ok := r.bodies[k]; !ok {
		r.bodies[k] = bytes.Clone(body)
	}
	r.mu.Unlock()
}

func (r *mixRecorder) fail(code int) {
	r.mu.Lock()
	r.status[code]++
	r.mu.Unlock()
}

// mixClient holds one client goroutine's connection, its reusable
// response buffer, and the outcome of its last op for the recorder.
type mixClient struct {
	conn       *conn
	buf        bytes.Buffer
	kind, pool int
	code       int
}

// mixBench is one serve-mix run: the generated pools and every distinct
// response its cdsd children returned.
type mixBench struct {
	cdsd string
	in   *mixInputs
	rec  *mixRecorder
}

func startServeMix(cfg *config, out *outcome) (bench, error) {
	in, err := genMix(cfg.seed)
	if err != nil {
		return nil, err
	}
	out.meta["clients"] = httpClients
	out.meta["cdsd_flags"] = untracedFlags
	out.meta["compute_workers"] = 1
	out.meta["client_gomaxprocs"] = 1 // while driving cdsd; see drive
	out.meta["pools"] = map[string]int{"warm": mixWarm, "cold": mixCold, "verify": mixVerify, "cache": cdsdCache}
	return &mixBench{cdsd: cfg.cdsd, in: in, rec: newMixRecorder()}, nil
}

func (b *mixBench) check(out *outcome) float64 {
	checkMix(b.in, b.rec, out)
	return mixGatewayRatio(b.in)
}

// mixPhase is one cdsd child with its warm pool primed. A traced one also
// keeps what the per-layer metrics are derived from: /metrics before and
// after its timed ops, and the request traces they left.
type mixPhase struct {
	b             *mixBench
	c             *child
	cl            []*mixClient
	since         time.Time
	before, after metrics.Scrape
	recs          []*obs.TraceRecord
}

// setup starts cdsd and runs the fixed warm-up list: every warm request's
// base body once (filling the cache with the results the warm stream will
// hit) and every verify request once.
func (b *mixBench) setup(traced bool) (instance, error) {
	flags := untracedFlags
	if traced {
		flags = tracedFlags
	}
	clients := httpClients
	c, err := startCdsd(b.cdsd, clients, flags)
	if err != nil {
		return nil, err
	}
	ph := &mixPhase{b: b, c: c}
	for i := 0; i < clients; i++ {
		ph.cl = append(ph.cl, &mixClient{conn: c.dial()})
	}
	var warm [][2]int
	for _, kind := range []int{kindWarm, kindVerify} {
		for pool := range b.in.pools[kind] {
			warm = append(warm, [2]int{kind, pool})
		}
	}
	var wg sync.WaitGroup
	for k, mc := range ph.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := k; j < len(warm); j += clients {
				kind, pool := warm[j][0], warm[j][1]
				ph.send(mc, kind, pool, b.in.pools[kind][pool].bodies[0])
				ph.record(mc)
			}
		}()
	}
	wg.Wait()
	return ph, nil
}

func (ph *mixPhase) send(mc *mixClient, kind, pool int, body []byte) bool {
	path := "/v1/compute"
	if kind == kindVerify {
		path = "/v1/verify"
	}
	mc.kind, mc.pool = kind, pool
	code, err := mc.conn.do(http.MethodPost, path, body, &mc.buf)
	if err != nil {
		code = -1
	}
	mc.code = code
	return code == http.StatusOK
}

func (ph *mixPhase) record(mc *mixClient) {
	if mc.code != http.StatusOK {
		ph.b.rec.fail(mc.code)
		return
	}
	ph.b.rec.add(mc.kind, mc.pool, mc.buf.Bytes())
}

func (ph *mixPhase) clients() int { return len(ph.cl) }

func (ph *mixPhase) op(c, i int) bool {
	kind, pool, body := ph.b.in.pick(i)
	return ph.send(ph.cl[c], kind, pool, body)
}

func (ph *mixPhase) post(c, i int, ok bool) { ph.record(ph.cl[c]) }

func (ph *mixPhase) pid() int { return ph.c.pid() }

func (ph *mixPhase) stop() error { return ph.c.stop() }

func (ph *mixPhase) begin() (err error) {
	ph.since = time.Now()
	ph.before, err = ph.c.scrape()
	return err
}

func (ph *mixPhase) end() (err error) {
	if ph.after, err = ph.c.scrape(); err != nil {
		return err
	}
	for _, name := range []string{"compute", "verify"} {
		r, err := ph.c.traces(name, ph.since)
		if err != nil {
			return err
		}
		ph.recs = append(ph.recs, r...)
	}
	return nil
}

// layers derives serve-mix's per-layer metrics from the traced child's
// spans and /metrics, plus a replay of the request bodies through the
// public functions behind the handler's untraced stages.
func (ph *mixPhase) layers(out *outcome) map[string]metric {
	ts := summarizeTraces(ph.recs)
	if ts.misfits > 0 {
		out.problem("reconciliation: %d cdsd stage spans extend outside their root span", ts.misfits)
	}
	m := layerSet{}
	m.durs("server.root_self_ms_p50", ts.self, 50, "ms")
	m.stage("server.cache_lookup_ms_p50", ts.spans, "cache-lookup", 50, "ms")
	m.stage("server.encode_ms_p50", ts.spans, "encode", 50, "ms")
	m.stage("server.queue_wait_ms_p50", ts.spans, "queue-wait", 50, "ms")
	m.stage("server.queue_wait_ms_p99", ts.spans, "queue-wait", 99, "ms")
	m.stage("server.compute_ms_p50", ts.spans, "compute", 50, "ms")
	m.stage("server.verify_ms_p50", ts.spans, "verify", 50, "ms")
	m.counter("server.cache_hits", ph.before, ph.after, "cdsd_cache_hits_total")
	m.counter("server.cache_misses", ph.before, ph.after, "cdsd_cache_misses_total")
	m.counter("server.coalesced", ph.before, ph.after, "cdsd_coalesced_total")
	m.counter("server.shed", ph.before, ph.after, "cdsd_shed_total")
	m.counter("server.errors", ph.before, ph.after, "cdsd_errors_total")
	hits, misses := m["server.cache_hits"].Value, m["server.cache_misses"].Value
	if hits+misses > 0 {
		m["server.cache_hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	m.median("obs.stage_sum_ratio", ts.coverage, "ratio")
	replayMixStages(ph.b.in, m)
	out.spans = firstSpans(ts.spans)
	out.meta["traces"] = len(ph.recs)
	out.meta["trace_flags"] = tracedFlags
	return m
}

// replayMixStages times the compute handler's stages that cdsd has no
// span for, by replaying every compute body through the same public
// functions: the strict JSON decode into server.ComputeRequest, graph
// construction with graph.FromEdgeFunc, and graph.Digest for the cache
// key.
func replayMixStages(in *mixInputs, m layerSet) {
	var dec, build, dig []time.Duration
	for _, kind := range []int{kindWarm, kindCold} {
		for _, r := range in.pools[kind] {
			t0 := time.Now()
			var req server.ComputeRequest
			d := json.NewDecoder(bytes.NewReader(r.bodies[0]))
			d.DisallowUnknownFields()
			if err := d.Decode(&req); err != nil {
				continue // generated bodies always decode; the check covers responses
			}
			t1 := time.Now()
			g := graph.FromEdgeFunc(req.Graph.Nodes, func(emit func(u, v graph.NodeID)) {
				for _, e := range req.Graph.Edges {
					emit(graph.NodeID(e[0]), graph.NodeID(e[1]))
				}
			})
			t2 := time.Now()
			graph.Digest(g)
			t3 := time.Now()
			dec, build, dig = append(dec, t1.Sub(t0)), append(build, t2.Sub(t1)), append(dig, t3.Sub(t2))
		}
	}
	m.durs("server.decode_ms_p50", dec, 50, "ms")
	m.durs("graph.from_edges_ms_p50", build, 50, "ms")
	m.durs("graph.digest_ms_p50", dig, 50, "ms")
}

// mixGatewayRatio is the mean |G'|/N over the compute pools.
func mixGatewayRatio(in *mixInputs) float64 {
	sum, n := 0.0, 0
	for _, kind := range []int{kindWarm, kindCold} {
		for _, r := range in.pools[kind] {
			res := cds.MustCompute(r.req.G, r.req.Policy, r.req.Energy)
			sum += float64(res.NumGateways()) / float64(r.req.G.NumNodes())
			n++
		}
	}
	return sum / float64(n)
}

// checkMix verifies every recorded response against the library: a
// compute response must carry exactly cds.Compute's gateways (and marked
// set when asked for) for its request, with warm requests answered for
// their generated integer energies, which is what cdsd's quantized cache
// key promises; a verify response must carry exactly cds.Analyze's
// report.
func checkMix(in *mixInputs, rec *mixRecorder, out *outcome) {
	defer out.checked(time.Now())
	for code, n := range rec.status {
		out.problem("%d responses with status %d", n, code)
	}
	type oracle struct {
		compute *cds.Result
		verify  *cds.Report
	}
	cache := map[[2]int]*oracle{}
	hits := map[string]int{}
	for k, body := range rec.bodies {
		r := in.pools[k.kind][k.pool]
		o := cache[[2]int{k.kind, k.pool}]
		if o == nil {
			o = &oracle{}
			if k.kind == kindVerify {
				gw := make([]bool, r.req.G.NumNodes())
				for _, v := range r.req.Verify.Gateways {
					gw[v] = true
				}
				rep, err := cds.Analyze(r.req.G, gw)
				if err != nil {
					out.problem("verify pool %d: oracle: %v", k.pool, err)
					continue
				}
				o.verify = rep
			} else {
				res, err := cds.Compute(r.req.G, r.req.Policy, r.req.Energy)
				if err != nil {
					out.problem("compute pool %d: oracle: %v", k.pool, err)
					continue
				}
				o.compute = res
			}
			cache[[2]int{k.kind, k.pool}] = o
		}
		if k.kind == kindVerify {
			var got server.VerifyResponse
			if err := json.Unmarshal(body, &got); err != nil {
				out.problem("verify pool %d: undecodable response: %v", k.pool, err)
				continue
			}
			rep := o.verify
			want := server.VerifyResponse{
				Valid: rep.Valid == nil, NumGateways: rep.Gateways, BackboneDiameter: rep.BackboneDiameter,
				ArticulationPoints: rep.ArticulationPoints, MeanRedundancy: rep.MeanRedundancy,
			}
			if rep.Valid != nil {
				want.Reason = rep.Valid.Error()
			}
			if got != want {
				out.problem("verify pool %d: got %+v, want %+v", k.pool, got, want)
			}
			continue
		}
		var got server.ComputeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			out.problem("kind %d pool %d: undecodable response: %v", k.kind, k.pool, err)
			continue
		}
		if got.Cached {
			hits[[]string{"warm", "cold"}[k.kind]]++
		}
		res := o.compute
		want := ids(res.Gateway)
		if got.Policy != r.req.Policy.String() || got.Nodes != r.req.G.NumNodes() ||
			got.NumGateways != len(want) || !slices.Equal(got.Gateways, want) {
			out.problem("kind %d pool %d: gateways differ from cds.Compute (%d vs %d)", k.kind, k.pool, got.NumGateways, len(want))
		}
		wantMarked := []int(nil)
		if r.req.Compute.IncludeMarked {
			wantMarked = ids(res.Marked)
		}
		if !slices.Equal(got.Marked, wantMarked) {
			out.problem("kind %d pool %d: marked set differs from cds.Compute", k.kind, k.pool)
		}
	}
	out.meta["distinct_responses"] = len(rec.bodies)
	out.meta["distinct_cached_responses"] = hits
}

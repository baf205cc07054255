package main

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pacds/internal/graph"
	"pacds/internal/obs"
	"pacds/internal/server"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		p, beyond := tailPercentile(n)
		if beyond != n-rank(p, n) {
			t.Fatalf("n=%d: reported %d beyond p%v, counted %d", n, beyond, p, n-rank(p, n))
		}
		if beyond < minBeyond && p != tailLadder[len(tailLadder)-1] {
			t.Fatalf("n=%d: p%v has only %d samples beyond it", n, p, beyond)
		}
		for _, higher := range tailLadder {
			if higher <= p {
				break
			}
			if n-rank(higher, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%v although p%v has %d samples beyond it", n, p, higher, n-rank(higher, n))
			}
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {40, 75}, {25, 60}, {24, 50}, {5, 50}} {
		if p, _ := tailPercentile(c.n); p != c.p {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, p, c.p)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 30; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 15}, {60, 18}, {99, 30}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..30 = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestFailuresCountAsSLOMisses(t *testing.T) {
	limit := 10 * time.Millisecond
	l := &loop{
		lat:  []time.Duration{time.Millisecond, time.Millisecond, 20 * time.Millisecond, time.Millisecond},
		ok:   []bool{true, false, true, true},
		wall: time.Second,
	}
	// One op failed fast and one succeeded too slowly: two of four meet
	// the limit.
	if got := l.sloOK(limit); got != 0.5 {
		t.Errorf("sloOK = %v, want 0.5", got)
	}
	if l.attempted() != 4 || l.failed() != 1 {
		t.Errorf("attempted %d failed %d, want 4 and 1", l.attempted(), l.failed())
	}
	if got := l.opsPerSec(); got != 3 {
		t.Errorf("opsPerSec = %v, want 3 (failures are not completions)", got)
	}
	if got := len(l.completed()); got != 3 {
		t.Errorf("%d completed latencies, want 3", got)
	}
}

// TestChurnCycleReturnsToBase applies one full cycle of every session's
// batches to its base topology and energies and requires both to come
// back unchanged, so the cost of a batch cannot drift with run length.
func TestChurnCycleReturnsToBase(t *testing.T) {
	plans, err := genChurn(1)
	if err != nil {
		t.Fatal(err)
	}
	for j, p := range plans {
		base := map[uint64]bool{}
		p.g.Edges(func(u, v graph.NodeID) { base[edgeKey(int(u), int(v))] = true })
		links := map[uint64]bool{}
		for k := range base {
			links[k] = true
		}
		energy := slices.Clone(p.energy)
		if len(p.batches) != churnCycle {
			t.Fatalf("session %d: %d batches in the cycle, want %d", j, len(p.batches), churnCycle)
		}
		for b, req := range p.batches {
			if len(req.Changes) == 0 {
				t.Errorf("session %d batch %d carries no link events", j, b)
			}
			if req.Energy != nil {
				energy = slices.Clone(req.Energy)
			}
			for _, ch := range req.Changes {
				k := edgeKey(ch.A, ch.B)
				if links[k] == ch.Up {
					t.Fatalf("session %d batch %d: link %d-%d up=%v is already in that state", j, b, ch.A, ch.B, ch.Up)
				}
				if ch.Up {
					links[k] = true
				} else {
					delete(links, k)
				}
			}
			if b == churnForward-1 && len(links) == len(base) && fmt.Sprint(links) == fmt.Sprint(base) {
				t.Errorf("session %d: the forward walk left the topology unchanged", j)
			}
		}
		if fmt.Sprint(links) != fmt.Sprint(base) {
			t.Errorf("session %d: topology differs from base after one cycle", j)
		}
		if !slices.Equal(energy, p.energy) {
			t.Errorf("session %d: energies differ from base after one cycle", j)
		}
	}
}

// TestMixWarmPoolNeverEvicted replays serve-mix's request order, warm-up
// list first, through an LRU of cdsd's default size and requires every
// warm request of the timed stream to hit and every cold one to miss, so
// the hit share is fixed at one half of computes. With more than one
// client, neighbouring requests can swap; the swapped order must behave
// the same.
func TestMixWarmPoolNeverEvicted(t *testing.T) {
	for _, swap := range []bool{false, true} {
		lru := newTestLRU(cdsdCache)
		for pool := 0; pool < mixWarm; pool++ {
			lru.access([2]int{kindWarm, pool})
		}
		n := 4 * mixFrame * mixCold // several full cycles of every pool
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		if swap {
			for i := 0; i+1 < n; i += 2 {
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		hits := map[int]int{}
		for _, i := range order {
			kind, idx := mixSlot(i)
			if kind == kindVerify {
				continue // verifies bypass the cache
			}
			pool := idx % mixWarm
			if kind == kindCold {
				pool = idx % mixCold
			}
			hit := lru.access([2]int{kind, pool})
			if hit != (kind == kindWarm) {
				t.Fatalf("swap=%v op %d: kind %d pool %d hit=%v", swap, i, kind, pool, hit)
			}
			if hit {
				hits[kind]++
			}
		}
		if want := n * 9 / mixFrame; hits[kindWarm] != want {
			t.Errorf("swap=%v: %d warm hits, want %d", swap, hits[kindWarm], want)
		}
	}
}

// TestMixWarmVariantsShareCacheKey requires every warm variant's energies
// to round to the generated integer levels, which is what puts all
// variants of one warm request on one cache entry.
func TestMixWarmVariantsShareCacheKey(t *testing.T) {
	in, err := genMix(1)
	if err != nil {
		t.Fatal(err)
	}
	energyAware := 0
	for pool, r := range in.pools[kindWarm] {
		if len(r.bodies) != mixVariants {
			t.Fatalf("warm %d: %d bodies, want %d", pool, len(r.bodies), mixVariants)
		}
		if r.req.Energy == nil {
			continue
		}
		energyAware++
		for v := 1; v < mixVariants; v++ {
			req := decodeCompute(t, r.bodies[v])
			if slices.Equal(req.Energy, r.req.Energy) {
				t.Errorf("warm %d variant %d: energies identical to the base", pool, v)
			}
			for k, e := range req.Energy {
				if math.Round(e) != r.req.Energy[k] {
					t.Fatalf("warm %d variant %d host %d: %v rounds away from %v", pool, v, k, e, r.req.Energy[k])
				}
			}
		}
	}
	if energyAware == 0 {
		t.Error("no warm request uses an energy-aware policy")
	}
}

// TestMixPoolsSameForEverySeed requires serve-mix's pools to hold the
// same number of requests of each size and policy whatever the seed, so
// that a seed changes the topologies but not the mix of costs. (A request
// does not record its radius; mixStratum assigns it with the size.)
func TestMixPoolsSameForEverySeed(t *testing.T) {
	type stratum struct {
		n      int
		policy string
	}
	composition := func(seed uint64) [3]map[stratum]int {
		in, err := genMix(seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [3]map[stratum]int
		for kind, pool := range in.pools {
			out[kind] = map[stratum]int{}
			for _, r := range pool {
				out[kind][stratum{r.req.G.NumNodes(), r.req.Policy.String()}]++
			}
		}
		return out
	}
	want := composition(1)
	if got := len(want[kindCold]); got != len(mixNs)*len(mixPolicies) {
		t.Fatalf("cold pool spans %d strata, want every one", got)
	}
	for _, seed := range []uint64{2, 3, heldOutSeed} {
		if got := composition(seed); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: pool composition %v, seed 1 %v", seed, got, want)
		}
	}
}

// TestGeneratedInputsStablePerSeed pins a digest of every workload's
// generated inputs for seed 1, so inputs cannot change silently between
// two commits being compared, and checks another seed gives other inputs.
func TestGeneratedInputsStablePerSeed(t *testing.T) {
	pinned := map[string]uint64{
		"serve-mix":      0x07b120966efc3c2e,
		"scratch-100k":   0x5a226b62ab21f6a9,
		"session-churn":  0x3a6652d57b4ede1d,
		"paper-lifetime": 0x881902279119782f,
	}
	for name, want := range pinned {
		got, other := inputDigest(t, name, 1), inputDigest(t, name, 2)
		if again := inputDigest(t, name, 1); again != got {
			t.Errorf("%s: seed 1 generated %016x, then %016x", name, got, again)
		}
		if got == other {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", name)
		}
		if got != want {
			t.Errorf("%s: seed 1 inputs digest %016x, pinned %016x", name, got, want)
		}
	}
}

func inputDigest(t *testing.T, workload string, seed uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	switch workload {
	case "serve-mix":
		in, err := genMix(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pool := range in.pools {
			for _, r := range pool {
				for _, b := range r.bodies {
					h.Write(b)
				}
			}
		}
	case "scratch-100k":
		for _, pos := range genScratch(seed).positions {
			for _, p := range pos {
				word(math.Float64bits(p.X))
				word(math.Float64bits(p.Y))
			}
		}
	case "session-churn":
		plans, err := genChurn(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			h.Write(p.create)
			for _, b := range p.bodies {
				h.Write(b)
			}
		}
	case "paper-lifetime":
		for i := 0; i < lifeCycle(); i++ {
			cfg := lifeTrial(seed, i)
			fmt.Fprint(h, cfg.N, cfg.Policy, cfg.Drain.Name(), cfg.Seed)
		}
	}
	return h.Sum64()
}

// TestLifetimeReplayEqualsSimRun requires the traced replay of a trial
// through sim.Run's public calls, with spans on, to give exactly sim.Run's
// lifetime and per-interval gateway counts.
func TestLifetimeReplayEqualsSimRun(t *testing.T) {
	for i := 0; i < lifeConfigs(); i++ {
		cfg := lifeTrial(3, i)
		want, err := simTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{t0: time.Now()}
		got, err := replayTrial(cfg, rec, i, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.intervals != want.intervals || !slices.Equal(got.counts, want.counts) {
			t.Fatalf("trial %d (N=%d %v %s): replay lasted %d intervals, sim.Run %d",
				i, cfg.N, cfg.Policy, cfg.Drain.Name(), got.intervals, want.intervals)
		}
		if len(rec.spans) == 0 {
			t.Fatalf("trial %d: replay recorded no spans", i)
		}
	}
}

// testLRU is a least-recently-used set of keys with a fixed capacity, the
// eviction policy of cdsd's result cache.
type testLRU struct {
	cap   int
	order *list.List
	items map[[2]int]*list.Element
}

func newTestLRU(capacity int) *testLRU {
	return &testLRU{cap: capacity, order: list.New(), items: map[[2]int]*list.Element{}}
}

// access reports whether key was cached, then makes it most recent.
func (c *testLRU) access(key [2]int) bool {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return true
	}
	c.items[key] = c.order.PushFront(key)
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.([2]int))
	}
	return false
}

func decodeCompute(t *testing.T, body []byte) server.ComputeRequest {
	t.Helper()
	var req server.ComputeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestTraceReconciliation checks root self time and the rule that every
// cdsd stage span lies within its root.
func TestTraceReconciliation(t *testing.T) {
	recs := []*obs.TraceRecord{
		{DurUS: 100, Spans: []obs.SpanRecord{{Name: "queue-wait", StartUS: 10, DurUS: 20}, {Name: "compute", StartUS: 25, DurUS: 30}, {Name: "encode", StartUS: 80, DurUS: 10}}},
		{DurUS: 50, Spans: []obs.SpanRecord{{Name: "encode", StartUS: 45, DurUS: 10}}},
	}
	ts := summarizeTraces(recs)
	if ts.misfits != 1 {
		t.Errorf("%d misfits, want 1 (the second trace's encode ends 5us after its root)", ts.misfits)
	}
	// First trace: stages cover [10,55) and [80,90): 55us of 100.
	if ts.self[0] != 45*time.Microsecond || ts.coverage[0] != 0.55 {
		t.Errorf("self %v coverage %v, want 45us and 0.55", ts.self[0], ts.coverage[0])
	}
}

// TestBenchmarkDeclaresReportedMetrics requires BENCHMARK.json to declare
// exactly the workloads and metrics this command reports, with the same
// units.
func TestBenchmarkDeclaresReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"serve-mix", "scratch-100k", "session-churn", "paper-lifetime"}) ||
		len(names) != len(workloads) {
		t.Errorf("declared workloads %v, command runs %v", names, workloadNames())
	}
	var e2e []string
	o := &outcome{meta: map[string]any{}}
	o.report(&loop{lat: []time.Duration{1}, ok: []bool{true}, wall: time.Second}, time.Second, []time.Duration{1}, 1, 1)
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
		if o.metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s: declared unit %q, reported %q", m.Name, m.Unit, o.metrics[m.Name].Unit)
		}
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("declared end-to-end metrics %v, reported %v", e2e, endToEndMetrics)
	}
	var layers []layerMetric
	for _, m := range decl.PerLayer {
		layers = append(layers, layerMetric{m.Name, m.Unit})
	}
	if !slices.Equal(layers, perLayerMetrics) {
		t.Errorf("declared per-layer metrics differ from the reported ones")
	}
}

// TestEveryLayerIsOwned requires every declared per-layer metric to be
// measured by at least one workload, and every owned metric to be
// declared.
func TestEveryLayerIsOwned(t *testing.T) {
	declared := map[string]bool{}
	for _, pm := range perLayerMetrics {
		declared[pm.name] = true
	}
	owned := map[string]bool{}
	for name, w := range workloads {
		for _, l := range w.layers {
			if !declared[l] {
				t.Errorf("%s owns undeclared metric %s", name, l)
			}
			owned[l] = true
		}
	}
	for _, pm := range perLayerMetrics {
		if !owned[pm.name] {
			t.Errorf("no workload measures %s", pm.name)
		}
	}
}

func TestLayerSetLeavesUnmeasuredOut(t *testing.T) {
	m := layerSet{}
	spans := []span{{Name: "session-apply", Dur: 2e6}}
	m.stage("topo.apply_ms_p50", spans, "session-apply", 50, "ms")
	m.stage("topo.lock_wait_ms_p99", spans, "session-lock-wait", 99, "ms")
	m.durs("server.decode_ms_p50", nil, 50, "ms")
	m.mean("distributed.frontier_mean", nil, "slots")
	if got := m["topo.apply_ms_p50"]; got != (metric{2, "ms"}) {
		t.Errorf("topo.apply_ms_p50 = %+v, want 2 ms", got)
	}
	if len(m) != 1 {
		t.Errorf("metrics without samples were set: %v", m)
	}
}

// fakeBench is an in-process workload whose check and per-layer metrics
// the test controls.
type fakeBench struct {
	wrong  bool
	layers map[string]metric
}

type fakeInst struct{ f *fakeBench }

func (f *fakeBench) setup(bool) (instance, error) { return fakeInst{f}, nil }

func (f *fakeBench) check(out *outcome) float64 {
	if f.wrong {
		out.problem("output differs from the oracle")
	}
	return 0.5
}

func (fakeInst) clients() int { return 1 }
func (fakeInst) op(c, i int) bool {
	time.Sleep(time.Millisecond)
	return true
}
func (fakeInst) post(c, i int, ok bool) {}
func (fakeInst) pid() int               { return 0 }
func (fakeInst) stop() error            { return nil }
func (fakeInst) begin() error           { return nil }
func (fakeInst) end() error             { return nil }
func (k fakeInst) layers(*outcome) map[string]metric {
	m := map[string]metric{}
	maps.Copy(m, k.f.layers)
	return m
}

// runFake runs the command on a fake workload and returns its error.
func runFake(t *testing.T, f *fakeBench, layers []string, trace string) error {
	t.Helper()
	workloads["fake"] = &workload{
		limit:  time.Second,
		layers: layers,
		start:  func(*config, *outcome) (bench, error) { return f, nil },
	}
	defer delete(workloads, "fake")
	stdout := os.Stdout
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	return run([]string{"-workload", "fake", "-seconds", "1", "-trace", trace, "-root", t.TempDir(), "-out", t.TempDir()})
}

func TestFailedCheckExitsNonzero(t *testing.T) {
	if err := runFake(t, &fakeBench{}, nil, "0"); err != nil {
		t.Fatalf("correct run failed: %v", err)
	}
	err := runFake(t, &fakeBench{wrong: true}, nil, "0")
	if err == nil || !strings.Contains(err.Error(), "output checks failed") {
		t.Fatalf("run with a failed check returned %v, want an error", err)
	}
}

func TestTracedRunFailsOnOwnedLayerWithoutSamples(t *testing.T) {
	owned := []string{"cds.mark_ms_p50", "obs.tracing_overhead_ratio"}
	full := &fakeBench{layers: map[string]metric{"cds.mark_ms_p50": {1, "ms"}}}
	if err := runFake(t, full, owned, "1"); err != nil {
		t.Fatalf("traced run with every owned layer measured failed: %v", err)
	}
	if err := runFake(t, &fakeBench{}, owned, "1"); err == nil {
		t.Fatal("traced run with an owned layer unmeasured succeeded")
	}
}

// TestConnKeepsAliveAndRedials drives the benchmark's HTTP/1.1 client
// against a net/http server: requests share one connection until the
// server closes it, and the next request then dials anew.
func TestConnKeepsAliveAndRedials(t *testing.T) {
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %s %s", r.Method, r.URL.RequestURI(), body)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	k := (&child{base: srv.URL}).dial()
	defer k.close()
	var buf bytes.Buffer
	send := func(method, path string, body []byte, want string) {
		t.Helper()
		code, err := k.do(method, path, body, &buf)
		if err != nil || code != http.StatusOK || buf.String() != want {
			t.Fatalf("%s %s: status %d, body %q, err %v; want 200 and %q", method, path, code, buf.String(), err, want)
		}
	}
	for i := 0; i < 3; i++ {
		send(http.MethodPost, "/v1/compute?x=1", []byte(`{"a":1}`), `POST /v1/compute?x=1 {"a":1}`)
	}
	send(http.MethodGet, "/close", nil, "GET /close ")
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d connections for four requests, want 1", got)
	}
	send(http.MethodGet, "/v1/sessions/s", nil, "GET /v1/sessions/s ")
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d connections after the server closed one, want 2", got)
	}
}

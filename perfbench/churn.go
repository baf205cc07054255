package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pacds/internal/cds"
	"pacds/internal/distributed"
	"pacds/internal/geom"
	"pacds/internal/graph"
	"pacds/internal/metrics"
	"pacds/internal/mobility"
	"pacds/internal/obs"
	"pacds/internal/server"
	"pacds/internal/udg"
	"pacds/internal/xrand"
)

// session-churn: maintained cdsd sessions under localized link churn.
//
// Set-up creates churnSessions EL2 sessions at N = churnN and the paper's
// density. Each session's delta stream is a fixed cycle: churnForward
// batches of a seeded walk (each batch moves churnMovers hosts one hop of
// the paper's mobility model, and every churnEnergyEvery-th batch also
// gives churnEnergyHosts hosts new energy levels), then the same batches
// undone in reverse order. Every cycle therefore returns the topology and
// the energies to their base, so the cost of a batch does not drift with
// run length. httpClients closed-loop clients send about 80% change
// batches, each to a session the client owns (so each session's batches
// arrive in order), and about 20% polls with since=<last epoch seen> to
// any session.
const (
	churnSessions           = 32
	churnN                  = 1000
	churnRadius             = 25.0
	churnForward            = 16
	churnCycle              = 2 * churnForward
	churnMovers             = 2
	churnEnergyEvery        = 4
	churnEnergyHosts        = 16
	churnGetShare           = 0.2
	churnPolicy             = "EL2"
	churnSalt        uint64 = 0xc4a7_0000_0000_0001
	churnOpSalt      uint64 = 0xc4a7_0000_0000_0002
)

// churnPlan is one session's base state and its batch cycle.
type churnPlan struct {
	g       *graph.Graph
	energy  []float64
	create  []byte
	batches []server.SessionChangesRequest
	bodies  [][]byte
}

func churnField() geom.Rect { return geom.Square(10 * math.Sqrt(churnN)) }

// edgeKey identifies the undirected link {u, v}.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func planChurn(seed uint64, j int) (*churnPlan, error) {
	rng := xrand.New(xrand.Mix(streamSeed(seed, churnSalt), uint64(j)))
	field := churnField()
	cfg := udg.Config{N: churnN, Field: field, Radius: churnRadius}
	inst, err := udg.RandomConnected(cfg, rng, 200)
	if err != nil {
		// Too sparse to connect within the attempts: a disconnected
		// deployment is still a valid session (checks run per component).
		if inst, err = udg.Random(cfg, rng); err != nil {
			return nil, err
		}
	}
	p := &churnPlan{g: inst.Graph, energy: make([]float64, churnN)}
	for v := range p.energy {
		p.energy[v] = float64(rng.IntRange(1, 100))
	}
	spec := server.GraphSpec{Nodes: churnN}
	links := map[uint64]bool{}
	inst.Graph.Edges(func(u, v graph.NodeID) {
		spec.Edges = append(spec.Edges, [2]int{int(u), int(v)})
		links[edgeKey(int(u), int(v))] = true
	})
	if p.create, err = json.Marshal(server.SessionCreateRequest{Graph: spec, Policy: churnPolicy, Energy: p.energy}); err != nil {
		return nil, err
	}

	pos := slices.Clone(inst.Positions)
	energy := slices.Clone(p.energy)
	hop := mobility.NewPaper()
	hop.StayProb = 0 // a picked host always hops; the pick stands in for the stay draw
	var undoEnergy [churnForward][]float64
	for t := 0; t < churnForward; t++ {
		var req server.SessionChangesRequest
		for tries := 0; len(req.Changes) == 0 && tries < 100; tries++ {
			for m := 0; m < churnMovers; m++ {
				v := rng.Intn(churnN)
				hop.Step(pos[v:v+1], field, rng)
				req.Changes = append(req.Changes, relink(pos, v, links)...)
			}
		}
		if t%churnEnergyEvery == churnEnergyEvery-1 {
			undoEnergy[t] = slices.Clone(energy)
			for k := 0; k < churnEnergyHosts; k++ {
				energy[rng.Intn(churnN)] = float64(rng.IntRange(1, 100))
			}
			req.Energy = slices.Clone(energy)
		}
		p.batches = append(p.batches, req)
	}
	for t := churnForward - 1; t >= 0; t-- {
		fwd := p.batches[t]
		undo := server.SessionChangesRequest{Energy: undoEnergy[t]}
		for i := len(fwd.Changes) - 1; i >= 0; i-- {
			ch := fwd.Changes[i]
			ch.Up = !ch.Up
			undo.Changes = append(undo.Changes, ch)
		}
		p.batches = append(p.batches, undo)
	}
	for _, b := range p.batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

// relink recomputes host v's links after it moved and returns the link
// events that turn the old link set into the new one.
func relink(pos []geom.Point, v int, links map[uint64]bool) []server.SessionEdgeChange {
	var out []server.SessionEdgeChange
	r2 := churnRadius * churnRadius
	for u := range pos {
		if u == v {
			continue
		}
		k := edgeKey(u, v)
		if near := pos[u].Dist2(pos[v]) <= r2; near != links[k] {
			links[k] = near
			if !near {
				delete(links, k)
			}
			out = append(out, server.SessionEdgeChange{A: min(u, v), B: max(u, v), Up: near})
		}
	}
	return out
}

func genChurn(seed uint64) ([]*churnPlan, error) {
	plans := make([]*churnPlan, churnSessions)
	errs := make([]error, churnSessions)
	parallel(churnSessions, func(j int) { plans[j], errs[j] = planChurn(seed, j) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// churnSnap is what the check needs from one session response.
type churnSnap struct {
	session                 int
	batch                   int // sequence number of the batch (changes), -1 for a poll
	epoch                   uint64
	numGW                   int
	gwHash                  uint64
	frontier, markerChanges int
	since                   int64 // poll's since epoch, -1 if none
	summary                 *server.SessionChangeSummary
}

func hashIDs(ids []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range ids {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// churnClient is one client goroutine's state. Only its own goroutine
// touches it.
type churnClient struct {
	conn      *conn
	buf       bytes.Buffer
	next      map[int]int    // batches sent per owned session
	lastEpoch map[int]uint64 // last epoch seen per session
	// the op in flight, for the post-op recorder
	session, batch int
	since          int64
	code           int
	snaps          []churnSnap
	decodeErrs     int
}

// churnBench is one session-churn run: the session plans and every cdsd
// child it started, whose responses the check replays.
type churnBench struct {
	cdsd   string
	seed   uint64
	plans  []*churnPlan
	phases []*churnPhase
}

func startChurn(cfg *config, out *outcome) (bench, error) {
	plans, err := genChurn(cfg.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range map[string]any{
		"clients": httpClients, "client_gomaxprocs": 1, "cdsd_flags": untracedFlags, "compute_workers": 1,
		"sessions": churnSessions, "n": churnN, "policy": churnPolicy, "cycle_batches": churnCycle,
		"movers_per_batch": churnMovers, "energy_every": churnEnergyEvery, "poll_share": churnGetShare,
	} {
		out.meta[k] = v
	}
	return &churnBench{cdsd: cfg.cdsd, seed: cfg.seed, plans: plans}, nil
}

// churnPhase is one cdsd child holding the run's sessions. A traced one
// also keeps /metrics before and after its timed ops and the request
// traces they left.
type churnPhase struct {
	b       *churnBench
	c       *child
	ids     []string
	creates []churnSnap
	cl      []*churnClient
	ops     atomic.Int64
	fails   map[int]int
	failsMu sync.Mutex

	since                   time.Time
	before, after           metrics.Scrape
	created, changes, polls []*obs.TraceRecord
}

// setup starts cdsd, creates every session, then runs the warm-up list:
// one poll per session.
func (b *churnBench) setup(traced bool) (instance, error) {
	flags := untracedFlags
	if traced {
		flags = tracedFlags
	}
	clients := httpClients
	c, err := startCdsd(b.cdsd, clients, flags)
	if err != nil {
		return nil, err
	}
	ph := &churnPhase{b: b, c: c, ids: make([]string, churnSessions), creates: make([]churnSnap, churnSessions), fails: map[int]int{}}
	var buf bytes.Buffer
	for j := range b.plans {
		code, err := c.do(http.MethodPost, "/v1/sessions", b.plans[j].create, &buf)
		var resp server.SessionResponse
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("create session %d: status %d: %s", j, code, buf.String())
		}
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &resp)
		}
		if err == nil {
			code, err = c.do(http.MethodGet, "/v1/sessions/"+resp.ID, nil, &buf)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("poll session %d: status %d", j, code)
			}
		}
		if err != nil {
			c.stop()
			return nil, err
		}
		ph.ids[j] = resp.ID
		ph.creates[j] = churnSnap{session: j, batch: -1, epoch: resp.Epoch, numGW: resp.NumGateways, gwHash: hashIDs(resp.Gateways), since: -1}
	}
	for k := 0; k < clients; k++ {
		cl := &churnClient{conn: c.dial(), next: map[int]int{}, lastEpoch: map[int]uint64{}}
		for j := range b.plans {
			cl.lastEpoch[j] = ph.creates[j].epoch
		}
		ph.cl = append(ph.cl, cl)
	}
	b.phases = append(b.phases, ph)
	return ph, nil
}

// pickChurn draws op i's kind and session. Change batches go to a session
// the client owns (session mod clients == client).
func pickChurn(seed uint64, i, client, clients int) (poll bool, session int) {
	rng := xrand.New(xrand.Mix(streamSeed(seed, churnOpSalt), uint64(i)))
	poll = rng.Float64() < churnGetShare
	session = rng.Intn(churnSessions)
	if !poll {
		session = session - session%clients + client
		if session >= churnSessions {
			session -= clients
		}
	}
	return poll, session
}

func (ph *churnPhase) clients() int { return len(ph.cl) }

func (ph *churnPhase) op(c, i int) bool {
	cl := ph.cl[c]
	poll, j := pickChurn(ph.b.seed, i, c, len(ph.cl))
	cl.session, cl.batch, cl.since = j, -1, -1
	var code int
	var err error
	if poll {
		cl.since = int64(cl.lastEpoch[j])
		code, err = cl.conn.do(http.MethodGet, "/v1/sessions/"+ph.ids[j]+"?since="+strconv.FormatUint(cl.lastEpoch[j], 10), nil, &cl.buf)
	} else {
		cl.batch = cl.next[j]
		cl.next[j]++
		code, err = cl.conn.do(http.MethodPost, "/v1/sessions/"+ph.ids[j]+"/changes", ph.b.plans[j].bodies[cl.batch%churnCycle], &cl.buf)
	}
	if err != nil {
		code = -1
	}
	cl.code = code
	return code == http.StatusOK
}

func (ph *churnPhase) post(c, i int, ok bool) {
	ph.ops.Add(1)
	cl := ph.cl[c]
	if !ok {
		ph.failsMu.Lock()
		ph.fails[cl.code]++
		ph.failsMu.Unlock()
		return
	}
	var resp server.SessionResponse
	if err := json.Unmarshal(cl.buf.Bytes(), &resp); err != nil {
		cl.decodeErrs++
		return
	}
	cl.lastEpoch[cl.session] = max(cl.lastEpoch[cl.session], resp.Epoch)
	cl.snaps = append(cl.snaps, churnSnap{
		session: cl.session, batch: cl.batch, epoch: resp.Epoch, numGW: resp.NumGateways,
		gwHash: hashIDs(resp.Gateways), frontier: resp.FrontierSize, markerChanges: resp.MarkerChanges,
		since: cl.since, summary: resp.Summary,
	})
}

func (ph *churnPhase) pid() int { return ph.c.pid() }

func (ph *churnPhase) stop() error { return ph.c.stop() }

func (ph *churnPhase) begin() (err error) {
	if ph.created, err = ph.c.traces("session_create", time.Time{}); err != nil {
		return err
	}
	ph.since = time.Now()
	ph.before, err = ph.c.scrape()
	return err
}

func (ph *churnPhase) end() (err error) {
	if ph.after, err = ph.c.scrape(); err != nil {
		return err
	}
	if ph.changes, err = ph.c.traces("session_changes", ph.since); err != nil {
		return err
	}
	ph.polls, err = ph.c.traces("session_get", ph.since)
	return err
}

// layers derives session-churn's per-layer metrics from the traced
// child's spans and /metrics and from its batch responses.
func (ph *churnPhase) layers(out *outcome) map[string]metric {
	cs, ts, gs := summarizeTraces(ph.created), summarizeTraces(ph.changes), summarizeTraces(ph.polls)
	if n := cs.misfits + ts.misfits + gs.misfits; n > 0 {
		out.problem("reconciliation: %d cdsd stage spans extend outside their root span", n)
	}
	var frontier, markers []float64
	for _, cl := range ph.cl {
		for _, s := range cl.snaps {
			if s.batch >= 0 {
				frontier = append(frontier, float64(s.frontier))
				markers = append(markers, float64(s.markerChanges))
			}
		}
	}
	served := append(slices.Clone(ts.spans), gs.spans...)
	m := layerSet{}
	m.stage("topo.create_ms_p50", cs.spans, "session-bootstrap", 50, "ms")
	m.stage("topo.lock_wait_ms_p99", ts.spans, "session-lock-wait", 99, "ms")
	m.stage("topo.apply_ms_p50", ts.spans, "session-apply", 50, "ms")
	m.stage("server.encode_ms_p50", served, "encode", 50, "ms")
	m.stage("server.session_changes_ms_p50", ts.spans, "root", 50, "ms")
	m.stage("server.session_get_ms_p50", gs.spans, "root", 50, "ms")
	m.mean("distributed.frontier_mean", frontier, "slots")
	m.mean("distributed.marker_changes_mean", markers, "count")
	m.counter("server.shed", ph.before, ph.after, "cdsd_shed_total")
	m.counter("server.errors", ph.before, ph.after, "cdsd_errors_total")
	m.median("obs.stage_sum_ratio", append(slices.Clone(ts.coverage), gs.coverage...), "ratio")
	out.spans = firstSpans(append(slices.Clone(cs.spans), served...))
	out.meta["traces"] = len(ph.created) + len(ph.changes) + len(ph.polls)
	out.meta["trace_flags"] = tracedFlags
	return m
}

// check replays the responses of every child that served timed ops.
func (b *churnBench) check(out *outcome) float64 {
	ratio := 0.0
	for _, ph := range b.phases {
		if ph.ops.Load() > 0 {
			ratio = checkChurn(b.plans, ph, out)
		}
	}
	return ratio
}

// oracleState is a session's gateway set at one epoch.
type oracleState struct {
	numGW  int
	gwHash uint64
	ids    []int // kept only for epochs a poll named
}

// checkChurn replays every session's batches through an in-process
// distributed.Session bootstrapped from the same base state (the
// maintained protocol is deterministic for a shared history) and requires
// every response to match it exactly: epochs, gateway sets, frontier
// sizes and marker-change counts of change batches; epochs, gateway sets
// and since-diffs of polls. Gateway sets seen by polls must also pass
// cds.VerifyCDS on the replayed topology. It returns the mean |G'|/N over
// every session's first cycle.
func checkChurn(plans []*churnPlan, ph *churnPhase, out *outcome) float64 {
	defer out.checked(time.Now())
	for code, n := range ph.fails {
		out.problem("%d session requests failed with status %d", n, code)
	}
	batches := make([][]churnSnap, churnSessions)
	polls := make([][]churnSnap, churnSessions)
	for _, cl := range ph.cl {
		if cl.decodeErrs > 0 {
			out.problem("%d undecodable session responses", cl.decodeErrs)
		}
		for _, s := range cl.snaps {
			if s.batch >= 0 {
				batches[s.session] = append(batches[s.session], s)
			} else {
				polls[s.session] = append(polls[s.session], s)
			}
		}
	}
	ratios := make([]float64, churnSessions)
	var mu sync.Mutex
	parallel(churnSessions, func(j int) {
		var problems []string
		ratios[j], problems = replayChurn(plans[j], ph.creates[j], batches[j], polls[j])
		mu.Lock()
		for _, p := range problems {
			out.problem("session %d: %s", j, p)
		}
		mu.Unlock()
	})
	return mean(ratios)
}

func replayChurn(p *churnPlan, create churnSnap, batches, polls []churnSnap) (float64, []string) {
	var problems []string
	bad := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	policy, err := cds.ByName(churnPolicy)
	if err != nil {
		return 0, []string{err.Error()}
	}
	sess, err := distributed.NewSession(p.g, policy, p.energy)
	if err != nil {
		return 0, []string{"oracle bootstrap: " + err.Error()}
	}
	slices.SortFunc(batches, func(a, b churnSnap) int { return a.batch - b.batch })
	for i, b := range batches {
		if b.batch != i {
			return 0, []string{fmt.Sprintf("applied batches are not contiguous at %d", i)}
		}
	}
	wantIDs := map[uint64]bool{}
	for _, s := range polls {
		wantIDs[s.epoch] = true
		if s.since >= 0 {
			wantIDs[uint64(s.since)] = true
		}
	}
	states := map[uint64]*oracleState{}
	// The topology is a function of the position in the cycle, so one
	// gateway set needs verifying only once per position.
	verified := map[[2]uint64]bool{}
	snapshot := func(pos int) *oracleState {
		gwIDs := ids(sess.Gateways())
		st := &oracleState{numGW: len(gwIDs), gwHash: hashIDs(gwIDs)}
		if wantIDs[sess.Epoch()] {
			st.ids = gwIDs
			if k := [2]uint64{uint64(pos), st.gwHash}; !verified[k] {
				verified[k] = true
				if err := cds.VerifyCDS(sess.Graph(), sess.Gateways()); err != nil {
					bad("epoch %d: %v", sess.Epoch(), err)
				}
			}
		}
		states[sess.Epoch()] = st
		return st
	}
	st := snapshot(0)
	if create.epoch != sess.Epoch() || create.numGW != st.numGW || create.gwHash != st.gwHash {
		bad("create: epoch %d with %d gateways, oracle epoch %d with %d", create.epoch, create.numGW, sess.Epoch(), st.numGW)
	}
	ratio := 0.0
	for t := 0; t < max(len(batches), churnCycle); t++ {
		req := p.batches[t%churnCycle]
		if req.Energy != nil {
			if err := sess.UpdateEnergy(req.Energy); err != nil {
				return 0, append(problems, "oracle energy update: "+err.Error())
			}
		}
		changes := make([]distributed.EdgeChange, len(req.Changes))
		for i, ch := range req.Changes {
			changes[i] = distributed.EdgeChange{A: graph.NodeID(ch.A), B: graph.NodeID(ch.B), Up: ch.Up}
		}
		markers, err := sess.ApplyChanges(changes)
		if err != nil {
			return 0, append(problems, "oracle apply: "+err.Error())
		}
		st := snapshot((t + 1) % churnCycle)
		if t < churnCycle {
			ratio += float64(st.numGW) / churnN / churnCycle
		}
		if t < len(batches) {
			b := batches[t]
			if b.epoch != sess.Epoch() || b.numGW != st.numGW || b.gwHash != st.gwHash ||
				b.frontier != sess.LastFrontier() || b.markerChanges != markers {
				bad("batch %d: epoch %d, %d gateways, frontier %d, %d marker changes; oracle %d, %d, %d, %d",
					t, b.epoch, b.numGW, b.frontier, b.markerChanges, sess.Epoch(), st.numGW, sess.LastFrontier(), markers)
			}
		}
	}
	for _, s := range polls {
		st, ok := states[s.epoch]
		if !ok {
			bad("poll saw epoch %d, which the oracle never reached", s.epoch)
			continue
		}
		if s.numGW != st.numGW || s.gwHash != st.gwHash {
			bad("poll at epoch %d: %d gateways, oracle %d", s.epoch, s.numGW, st.numGW)
		}
		if s.summary == nil || s.summary.SinceEpoch != uint64(s.since) {
			bad("poll at epoch %d: missing or mislabeled since-%d summary", s.epoch, s.since)
			continue
		}
		if !s.summary.Complete {
			continue // history no longer reaches back; the full set was checked
		}
		from, ok := states[uint64(s.since)]
		if !ok {
			bad("poll since %d: the oracle never reached that epoch", s.since)
			continue
		}
		added, removed := diffIDs(from.ids, st.ids)
		if !slices.Equal(s.summary.GatewaysAdded, added) || !slices.Equal(s.summary.GatewaysRemoved, removed) {
			bad("poll since %d at epoch %d: summary diff differs from the oracle", s.since, s.epoch)
		}
	}
	return ratio, problems
}

// diffIDs returns the sorted ids in b but not a, and in a but not b.
func diffIDs(a, b []int) (added, removed []int) {
	inA := map[int]bool{}
	for _, v := range a {
		inA[v] = true
	}
	inB := map[int]bool{}
	for _, v := range b {
		inB[v] = true
		if !inA[v] {
			added = append(added, v)
		}
	}
	for _, v := range a {
		if !inB[v] {
			removed = append(removed, v)
		}
	}
	return added, removed
}

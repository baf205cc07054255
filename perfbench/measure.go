package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacds/internal/xrand"
)

// streamSeed derives the root of one input stream from the run's seed.
// Item seeds are then xrand.Mix(streamSeed(seed, salt), i), never
// xrand.Mix(seed, salt, i): Mix folds each part in with one xor and add,
// so for seeds that differ only in low bits the latter gives the same
// item seeds in another order, and runs with seeds 1 and 2 would get the
// same inputs permuted.
func streamSeed(seed, salt uint64) uint64 { return xrand.Mix(seed, salt) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The tail is the highest rung with at least minBeyond samples
// above it, so it is never a single outlier and never the median in
// disguise while a higher rung is supported.
var tailLadder = []float64{99, 95, 90, 75, 60, 50}

const minBeyond = 10

// tailPercentile picks the tail rung for n samples and reports how many
// samples lie beyond it. With fewer than 2*minBeyond samples no rung has
// minBeyond beyond it and the lowest rung is returned.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - rank(p, n); b >= minBeyond {
			return p, b
		}
	}
	p = tailLadder[len(tailLadder)-1]
	return p, n - rank(p, n)
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(r, 1)
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return percentile(s, 50)
}

// loop is what a closed-loop drive recorded: one entry per attempted op.
type loop struct {
	lat  []time.Duration
	ok   []bool
	wall time.Duration
	next int // index of the stream's next op
}

// add appends another stretch of the same stream.
func (l *loop) add(m *loop) {
	l.lat = append(l.lat, m.lat...)
	l.ok = append(l.ok, m.ok...)
	l.wall += m.wall
	l.next = m.next
}

// instance is one running copy of the program under a workload: a cdsd
// child process, or the library state of this process.
type instance interface {
	clients() int
	// op runs op i of the input stream from client c and reports whether
	// it succeeded.
	op(c, i int) bool
	// post runs after each op, outside its timing, and records what the
	// output checks need.
	post(c, i int, ok bool)
	// pid is the process whose peak RSS is max_rss_mb: a cdsd child, or 0
	// for this process.
	pid() int
	stop() error
}

// tracedInstance is an instance with tracing on. begin runs before its
// first timed op and end after its last, while it still runs; layers
// derives the per-layer metrics once the output checks are done. A
// latency or ratio without samples is left out of the map, so that an
// owned metric nobody measured fails the run instead of reading 0.
type tracedInstance interface {
	instance
	begin() error
	end() error
	layers(out *outcome) map[string]metric
}

// bench is one run of a workload over the inputs generated from its seed.
type bench interface {
	// setup starts a fresh instance, traced or not, and runs the fixed
	// warm-up list; the time it takes is one setup_s sample.
	setup(traced bool) (instance, error)
	// check runs the output checks on everything the run's instances
	// recorded and returns gateway_ratio.
	check(out *outcome) float64
}

// setupReps is how many times a plain run sets up; setup_s is the median.
const setupReps = 3

// measurePlain sets up setupReps times, drives the last instance for the
// run's time with its peak RSS counted from the first timed op, then
// checks the outputs and reports the end-to-end metrics.
func measurePlain(cfg *config, w *workload, b bench, out *outcome) error {
	var setups []time.Duration
	var inst instance
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			if err := inst.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = b.setup(false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	var l *loop
	var rss float64
	err := resetPeakRSS(inst.pid())
	if err == nil {
		l = drive(inst, 0, cfg.seconds)
		rss, err = peakRSSMiB(inst.pid())
	}
	if serr := inst.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	out.report(l, w.limit, setups, rss, b.check(out))
	return nil
}

// traceSlices is how many times a traced run switches between an
// untraced and a traced instance, so both halves of the run meet the same
// host conditions and obs.tracing_overhead_ratio measures tracing, not
// drift. Each instance continues its own input stream across its slices.
const traceSlices = 10

// measureTraced drives an untraced and a traced instance in alternating
// slices, checks the outputs of both, and reports the traced instance's
// per-layer metrics. For in-process workloads it adds the Go runtime's
// allocation per op over the untraced slices.
func measureTraced(cfg *config, w *workload, b bench, out *outcome) error {
	plain, err := b.setup(false)
	if err != nil {
		return err
	}
	inst, err := b.setup(true)
	if err != nil {
		plain.stop()
		return err
	}
	tr := inst.(tracedInstance)
	lp, lt := &loop{}, &loop{}
	var alloc goAlloc
	slice := cfg.seconds / (2 * traceSlices)
	err = tr.begin()
	for k := 0; err == nil && k < traceSlices; k++ {
		a0 := readAlloc()
		lp.add(drive(plain, lp.next, slice))
		alloc = alloc.plus(readAlloc().minus(a0))
		lt.add(drive(tr, lt.next, slice))
	}
	if err == nil {
		err = tr.end()
	}
	for _, i := range []instance{plain, tr} {
		if serr := i.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return err
	}
	b.check(out)
	m := tr.layers(out)
	if lp.attempted() > 0 && lt.attempted() > 0 {
		m["obs.tracing_overhead_ratio"] = metric{lt.opsPerSec() / lp.opsPerSec(), "ratio"}
	}
	if plain.pid() == 0 {
		perOp(m, alloc, lp.attempted())
	}
	for _, name := range w.layers {
		if _, ok := m[name]; !ok {
			out.problem("per-layer metric %s had no samples", name)
		}
	}
	out.metrics = m
	out.attempted = lp.attempted() + lt.attempted()
	out.failed = lp.failed() + lt.failed()
	out.meta["trace_slices"] = traceSlices
	return nil
}

// drive runs inst's ops closed loop from its clients until d has passed,
// starting at op first of its stream: each client issues its next op only
// when the previous one returned. Op indices come from one shared
// counter, so the input stream is the same sequence at any client count.
// A failed op counts as attempted, not as completed. When the program
// runs in a child process, this process only waits on sockets, so it
// drops to one P for the loop and leaves the CPUs to the child.
func drive(inst instance, first int, d time.Duration) *loop {
	if inst.pid() != 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	clients := inst.clients()
	var next atomic.Int64
	next.Store(int64(first))
	per := make([]loop, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			l := &per[c]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				ok := inst.op(c, i)
				l.lat = append(l.lat, time.Since(t0))
				l.ok = append(l.ok, ok)
				inst.post(c, i, ok)
			}
		}(c)
	}
	wg.Wait()
	all := &loop{wall: time.Since(start), next: int(next.Load())}
	for _, l := range per {
		all.lat = append(all.lat, l.lat...)
		all.ok = append(all.ok, l.ok...)
	}
	return all
}

func (l *loop) attempted() int { return len(l.lat) }

func (l *loop) failed() int {
	n := 0
	for _, ok := range l.ok {
		if !ok {
			n++
		}
	}
	return n
}

// completed returns the sorted latencies of the ops that succeeded.
func (l *loop) completed() []time.Duration {
	var s []time.Duration
	for i, d := range l.lat {
		if l.ok[i] {
			s = append(s, d)
		}
	}
	slices.Sort(s)
	return s
}

// sloOK is the share of attempted ops that succeeded within limit; a
// failed op is a miss whatever its latency.
func (l *loop) sloOK(limit time.Duration) float64 {
	n := 0
	for i, d := range l.lat {
		if l.ok[i] && d <= limit {
			n++
		}
	}
	return float64(n) / float64(max(len(l.lat), 1))
}

func (l *loop) opsPerSec() float64 {
	return float64(l.attempted()-l.failed()) / l.wall.Seconds()
}

// report sets a plain run's end-to-end metrics and op counts, and the
// sample facts the metadata must carry alongside them.
func (o *outcome) report(l *loop, limit time.Duration, setups []time.Duration, rssMiB, gatewayRatio float64) {
	done := l.completed()
	p, beyond := tailPercentile(len(done))
	o.metrics = map[string]metric{
		"ops_per_s":       {l.opsPerSec(), "1/s"},
		"latency_p50_ms":  {ms(percentile(done, 50)), "ms"},
		"latency_tail_ms": {ms(percentile(done, p)), "ms"},
		"slo_ok_ratio":    {l.sloOK(limit), "ratio"},
		"setup_s":         {median(setups).Seconds(), "s"},
		"max_rss_mb":      {rssMiB, "MiB"},
		"gateway_ratio":   {gatewayRatio, "ratio"},
	}
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.Seconds()
	}
	o.meta["samples"] = len(done)
	o.meta["tail_percentile"] = p
	o.meta["samples_beyond"] = beyond
	o.meta["wall_s"] = l.wall.Seconds()
	o.meta["setup_runs_s"] = setupS
	o.attempted, o.failed = l.attempted(), l.failed()
}

// peakRSSMiB reads the peak resident set size (VmHWM) of a process; pid 0
// means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// resetPeakRSS restarts a process's peak-RSS count (pid 0: this process),
// so that peakRSSMiB covers only what runs afterwards: the timed phase,
// not set-up.
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// hostSteal reads the cumulative CPU ticks the hypervisor took from this
// machine (steal) and the total ticks, from /proc/stat.
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// goAlloc samples the Go runtime's cumulative allocation and GC counters.
type goAlloc struct {
	bytes uint64
	gcs   uint32
}

func readAlloc() goAlloc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goAlloc{ms.TotalAlloc, ms.NumGC}
}

func (a goAlloc) minus(b goAlloc) goAlloc { return goAlloc{a.bytes - b.bytes, a.gcs - b.gcs} }

func (a goAlloc) plus(b goAlloc) goAlloc { return goAlloc{a.bytes + b.bytes, a.gcs + b.gcs} }

// perOp adds go.alloc_mb_per_op and go.gc_cycles_per_op for ops ops that
// allocated a.
func perOp(m map[string]metric, a goAlloc, ops int) {
	if ops == 0 {
		return
	}
	m["go.alloc_mb_per_op"] = metric{float64(a.bytes) / (1 << 20) / float64(ops), "MiB/op"}
	m["go.gc_cycles_per_op"] = metric{float64(a.gcs) / float64(ops), "1/op"}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the source the program was built from: the git commit
// when the checkout is a repository, and always a digest of its Go
// sources, which identifies an exported checkout too.
func commitOf(root string) map[string]string {
	out := map[string]string{"git": "unknown"}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			out["git"] = strings.TrimSpace(string(b))
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	out["source_sha256"] = hex.EncodeToString(h.Sum(nil))
	return out
}

// span is one timed call into a layer, recorded by the benchmark around a
// public function (library workloads) or copied from cdsd's trace ring.
type span struct {
	Op    int    `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// spanCap bounds the spans written to a run file; the per-layer metrics
// are computed from every span held in memory.
const spanCap = 50000

// recorder keeps one goroutine's spans in memory; nil records nothing.
type recorder struct {
	t0    time.Time
	spans []span
}

// time runs f inside a span named name.
func (r *recorder) time(op int, name string, f func()) {
	t0 := time.Now()
	f()
	if r != nil {
		r.spans = append(r.spans, span{op, name, int64(t0.Sub(r.t0)), int64(time.Since(t0))})
	}
}

// stageQuantile returns the p-th percentile duration of the spans named
// name, and false when there is none.
func stageQuantile(spans []span, name string, p float64) (time.Duration, bool) {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.Dur))
		}
	}
	slices.Sort(ds)
	return percentile(ds, p), len(ds) > 0
}

// layerSet is a traced run's per-layer metrics under construction. Its
// setters leave a metric out when it has no samples.
type layerSet map[string]metric

// stage sets name to the p-th percentile of the spans named spanName, in
// milliseconds or microseconds as unit says.
func (m layerSet) stage(name string, spans []span, spanName string, p float64, unit string) {
	if d, ok := stageQuantile(spans, spanName, p); ok {
		m.dur(name, d, unit)
	}
}

// durs sets name to the p-th percentile of ds.
func (m layerSet) durs(name string, ds []time.Duration, p float64, unit string) {
	if len(ds) > 0 {
		s := slices.Clone(ds)
		slices.Sort(s)
		m.dur(name, percentile(s, p), unit)
	}
}

func (m layerSet) dur(name string, d time.Duration, unit string) {
	v := ms(d)
	if unit == "us" {
		v = us(d)
	}
	m[name] = metric{v, unit}
}

// median sets name to the median of xs.
func (m layerSet) median(name string, xs []float64, unit string) {
	if len(xs) > 0 {
		m[name] = metric{medianFloat(xs), unit}
	}
}

// mean sets name to the mean of xs.
func (m layerSet) mean(name string, xs []float64, unit string) {
	if len(xs) > 0 {
		m[name] = metric{mean(xs), unit}
	}
}

// firstSpans caps spans for the run file.
func firstSpans(spans []span) []span {
	return spans[:min(len(spans), spanCap)]
}

func medianFloat(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(50, len(s))-1]
}

// clientCount is the number of workers driving an in-process workload:
// nproc, capped at 2.
func clientCount() int { return min(2, runtime.NumCPU()) }

// httpClients is the number of closed-loop clients driving a cdsd child.
// With two, a client's request could wait on the other's in cdsd's worker
// pool or on a session lock, and session-churn's tail spread 0.17-0.32 of
// its median over ten seeds; with one, about 0.06.
const httpClients = 1

// parallel runs f(0..n-1) on clientCount goroutines and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	workers := min(clientCount(), n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// ids lists the members of a membership slice in ascending order.
func ids(member []bool) []int {
	var out []int
	for v, in := range member {
		if in {
			out = append(out, v)
		}
	}
	return out
}

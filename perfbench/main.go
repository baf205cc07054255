// Command perfbench is the repository's benchmark. One invocation runs one
// named workload against the program for a fixed time, checks every
// output it recorded, and prints one JSON object as the last line of
// standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off in the
// program); with -trace 1 they are the per-layer ones from a separate
// traced run. Run metadata (host, toolchain, seeds, flags, sample counts)
// is printed on the line before the result and written, with any spans,
// under -out. When an output check failed, the result says so and the
// command exits 1. See README.md for the workloads and why each exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is reserved for confirming a claimed gain: it must not be
// used while the change is being developed or tuned.
const heldOutSeed = 7919

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string
	cdsd     string
	outDir   string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	problems          []string // output-check failures; any one fails the run
	meta              map[string]any
	spans             []span // traced runs only
}

func (o *outcome) problem(format string, args ...any) {
	const keep = 20 // enough to diagnose; the rest are summarized as omitted
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == keep {
		o.problems = append(o.problems, "further problems omitted")
	}
}

// checked adds the time since t0, spent on output checks, to the run's
// check_s metadata.
func (o *outcome) checked(t0 time.Time) {
	prev, _ := o.meta["check_s"].(float64)
	o.meta["check_s"] = prev + time.Since(t0).Seconds()
}

type workload struct {
	// limit is the latency limit behind slo_ok_ratio.
	limit time.Duration
	// layers are the per-layer metrics the workload measures. A traced run
	// fails when one of them has no samples; the rest read 0.
	layers []string
	// start generates the run's inputs from cfg.seed and returns its
	// hooks, with the workload's own facts put in out.meta.
	start func(cfg *config, out *outcome) (bench, error)
}

var workloads = map[string]*workload{
	"serve-mix": {
		limit: 50 * time.Millisecond,
		layers: []string{
			"server.root_self_ms_p50", "server.decode_ms_p50", "graph.from_edges_ms_p50", "graph.digest_ms_p50",
			"server.cache_lookup_ms_p50", "server.encode_ms_p50", "server.queue_wait_ms_p50", "server.queue_wait_ms_p99",
			"server.compute_ms_p50", "server.verify_ms_p50", "server.cache_hit_ratio", "server.cache_hits",
			"server.cache_misses", "server.coalesced", "server.shed", "server.errors",
			"obs.tracing_overhead_ratio", "obs.stage_sum_ratio",
		},
		start: startServeMix,
	},
	"scratch-100k": {
		limit: 3 * time.Second,
		layers: []string{
			"udg.build_ms_p50", "cds.mark_ms_p50", "cds.rules_ms_p50", "cds.rule1_ms_p50", "cds.rule2_ms_p50",
			"graph.edges", "cds.marked", "cds.gateways", "go.alloc_mb_per_op", "go.gc_cycles_per_op",
			"obs.tracing_overhead_ratio", "obs.stage_sum_ratio",
		},
		start: startScratch,
	},
	"session-churn": {
		limit: 100 * time.Millisecond,
		layers: []string{
			"topo.create_ms_p50", "topo.lock_wait_ms_p99", "topo.apply_ms_p50", "server.encode_ms_p50",
			"server.session_changes_ms_p50", "server.session_get_ms_p50", "distributed.frontier_mean",
			"distributed.marker_changes_mean", "server.shed", "server.errors",
			"obs.tracing_overhead_ratio", "obs.stage_sum_ratio",
		},
		start: startChurn,
	},
	"paper-lifetime": {
		limit: 250 * time.Millisecond,
		layers: []string{
			"cds.compute_us_p50", "udg.rebuild_us_p50", "mobility.step_us_p50", "energy.drain_us_p50",
			"udg.connected_start_ms_p50", "sim.lifetime_intervals", "go.alloc_mb_per_op", "go.gc_cycles_per_op",
			"obs.tracing_overhead_ratio", "obs.stage_sum_ratio",
		},
		start: startLifetime,
	},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	start := time.Now()
	steal0, ticks0 := hostSteal()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the program receives only the inputs generated from it")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository checkout the program was built from")
	cdsd := fs.String("cdsd", "", "cdsd binary built from the checkout (serve-mix, session-churn)")
	outDir := fs.String("out", ".bench_out", "directory for run metadata and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg := &config{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, cdsd: *cdsd, outDir: *outDir,
	}
	out := &outcome{meta: map[string]any{}}
	b, err := w.start(cfg, out)
	if err != nil {
		return err
	}
	if cfg.trace {
		err = measureTraced(cfg, w, b, out)
	} else {
		err = measurePlain(cfg, w, b, out)
	}
	if err != nil {
		return err
	}
	meta := runMeta(cfg, w)
	for k, v := range out.meta {
		meta[k] = v
	}
	meta["problems"] = out.problems
	meta["elapsed_s"] = time.Since(start).Seconds()
	if steal1, ticks1 := hostSteal(); ticks1 > ticks0 {
		// CPU time the hypervisor gave to other guests: high values mark
		// runs measured on a contended host.
		meta["host_steal_share"] = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	if err := writeRunFile(cfg, meta, out.spans); err != nil {
		return err
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := completeMetrics(cfg, out.metrics); err != nil {
		return err
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n%s\n", metaLine, line)
	if n := len(out.problems); n > 0 {
		return fmt.Errorf("%d output checks failed", n)
	}
	return nil
}

// endToEndMetrics are reported by every plain run.
var endToEndMetrics = []string{
	"ops_per_s", "latency_p50_ms", "latency_tail_ms", "slo_ok_ratio", "setup_s", "max_rss_mb", "gateway_ratio",
}

// perLayerMetrics are reported by every traced run, with their units. A
// workload reports 0 for a layer it never enters: it did no work there.
var perLayerMetrics = []layerMetric{
	{"server.root_self_ms_p50", "ms"},
	{"server.decode_ms_p50", "ms"},
	{"graph.from_edges_ms_p50", "ms"},
	{"graph.digest_ms_p50", "ms"},
	{"server.cache_lookup_ms_p50", "ms"},
	{"server.encode_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p99", "ms"},
	{"server.compute_ms_p50", "ms"},
	{"server.verify_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"server.session_changes_ms_p50", "ms"},
	{"server.session_get_ms_p50", "ms"},
	{"udg.build_ms_p50", "ms"},
	{"cds.mark_ms_p50", "ms"},
	{"cds.rules_ms_p50", "ms"},
	{"cds.rule1_ms_p50", "ms"},
	{"cds.rule2_ms_p50", "ms"},
	{"graph.edges", "count"},
	{"cds.marked", "count"},
	{"cds.gateways", "count"},
	{"topo.create_ms_p50", "ms"},
	{"topo.lock_wait_ms_p99", "ms"},
	{"topo.apply_ms_p50", "ms"},
	{"distributed.frontier_mean", "slots"},
	{"distributed.marker_changes_mean", "count"},
	{"cds.compute_us_p50", "us"},
	{"udg.rebuild_us_p50", "us"},
	{"mobility.step_us_p50", "us"},
	{"energy.drain_us_p50", "us"},
	{"udg.connected_start_ms_p50", "ms"},
	{"sim.lifetime_intervals", "intervals"},
	{"go.alloc_mb_per_op", "MiB/op"},
	{"go.gc_cycles_per_op", "1/op"},
	{"obs.tracing_overhead_ratio", "ratio"},
	{"obs.stage_sum_ratio", "ratio"},
}

type layerMetric struct{ name, unit string }

// completeMetrics makes m hold exactly the metrics of the run's mode:
// every end-to-end metric for a plain run; every per-layer metric for a
// traced run, with 0 for a layer the workload never enters. An owned
// layer without samples has already failed the run's checks, and reads 0
// too.
func completeMetrics(cfg *config, m map[string]metric) error {
	want := map[string]bool{}
	if cfg.trace {
		for _, pm := range perLayerMetrics {
			want[pm.name] = true
			if _, ok := m[pm.name]; !ok {
				m[pm.name] = metric{0, pm.unit}
			}
		}
	} else {
		for _, name := range endToEndMetrics {
			want[name] = true
			if _, ok := m[name]; !ok {
				return fmt.Errorf("workload %s did not report %s", cfg.workload, name)
			}
		}
	}
	for name := range m {
		if !want[name] {
			return fmt.Errorf("workload %s reported undeclared metric %s", cfg.workload, name)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runMeta is the metadata every result carries.
func runMeta(cfg *config, w *workload) map[string]any {
	return map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"held_out_seed":    heldOutSeed,
		"seconds":          cfg.seconds.Seconds(),
		"trace":            cfg.trace,
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           commitOf(cfg.root),
		"latency_limit_ms": float64(w.limit) / float64(time.Millisecond),
	}
}

// writeRunFile stores the metadata and spans of one run under cfg.outDir.
func writeRunFile(cfg *config, meta map[string]any, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := fmt.Sprintf("%s/%s-seed%d-trace%d.json", cfg.outDir, cfg.workload, cfg.seed, trace)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Command fsbench is the repository benchmark. One run executes one
// workload for a fixed time, checks every answer, and prints each metric by
// name and unit; the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
//
//	bash fsbench/run.sh --workload census --seed 1 --seconds 20 --trace 0
//
// The workloads are census and paper (in-process, batch) and serve-corpus
// and serve-inline (closed-loop HTTP load on a fourshadesd process). With
// --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics instead: it times every call it makes into
// a layer of the repository as a span, reports self time per layer, and
// writes the spans and the full layer table under .bench_build/out. See
// README.md in this directory for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees; every workload
// reports all of them with --trace 0. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers, reported with --trace 1. Every
// workload reports every name; a layer the workload makes no call into
// reads 0. BENCHMARK.json lists the same names.
var perLayer = []metricDef{
	{"corpus.build_s", "s"},
	{"graph.hash_s", "s"},
	{"graph.decode_us", "us"},
	{"view.refine_s", "s"},
	{"view.nodes_levels", "count"},
	{"view.nodes_levels_per_s", "1/s"},
	{"view.active_share", "share"},
	{"engine.refine_s", "s"},
	{"engine.overhead_s", "s"},
	{"engine.hits", "count"},
	{"engine.misses", "count"},
	{"engine.steps", "count"},
	{"engine.shortcuts", "count"},
	{"engine.evictions", "count"},
	{"engine.unions_built", "count"},
	{"store.open_s", "s"},
	{"store.load_s", "s"},
	{"store.save_s", "s"},
	{"store.loads", "count"},
	{"store.saves", "count"},
	{"store.log_mb", "MiB"},
	{"store.restart_s", "s"},
	{"core.E1_s", "s"},
	{"core.E2_s", "s"},
	{"core.E3_s", "s"},
	{"core.E4_s", "s"},
	{"core.E5_s", "s"},
	{"core.E6_s", "s"},
	{"core.E7_s", "s"},
	{"core.E8_s", "s"},
	{"core.E9_s", "s"},
	{"core.E10_s", "s"},
	{"core.adversary_s", "s"},
	{"adversary.states", "count"},
	{"adversary.mirrors", "count"},
	{"adversary.states_per_s", "1/s"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"http.healthz_p50_ms", "ms"},
	{"http.other_us", "us"},
	{"fourshadesd.census_p50_ms", "ms"},
	{"fourshadesd.advice_p50_ms", "ms"},
	{"fourshadesd.indices_p50_ms", "ms"},
	{"fourshadesd.sameview_p50_ms", "ms"},
	{"fourshadesd.corpus_census_p50_ms", "ms"},
	{"fourshadesd.cpu_us_per_req", "us"},
	{"fourshadesd.resp_cache_hit_share", "share"},
	{"fourshadesd.deduped_share", "share"},
	{"inline.repeat_share", "share"},
	{"json.decode_us", "us"},
	{"corpus.resolve_us", "us"},
	{"engine.query_us", "us"},
	{"json.encode_us", "us"},
	{"loadgen.cpu_us_per_req", "us"},
	{"trace.overhead_s", "s"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its settings, the operation counts and the
// metrics measured so far. Workloads fill e2e (untraced) or layer (traced)
// and extra, which is printed but not part of the result line.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	root     string
	daemon   string
	outDir   string
	started  time.Time
	log      io.Writer

	attempted atomic.Int64
	failed    atomic.Int64

	e2e   map[string]float64
	layer map[string]float64
	extra map[string]metric
}

// fail counts one failed operation and says why on standard error, for the
// first maxFailLogs failures: a broken answer repeats on every request.
func (b *bench) fail(format string, args ...any) {
	if b.failed.Add(1) <= maxFailLogs {
		fmt.Fprintf(b.log, "fsbench: FAILED: "+format+"\n", args...)
	}
}

const maxFailLogs = 20

// note records a metric that is printed in the report but is not one of the
// result line's metrics.
func (b *bench) note(name string, value float64, unit string) {
	b.extra[name] = metric{value, unit}
}

var workloads = map[string]func(*bench) error{
	"census":       runCensus,
	"paper":        runPaper,
	"serve-corpus": func(b *bench) error { return runServe(b, serveCorpusMix) },
	"serve-inline": func(b *bench) error { return runServe(b, serveInlineMix) },
}

func main() {
	started := time.Now()
	os.Exit(run(os.Args[1:], started, os.Stdout, os.Stderr))
}

// run is main with injectable streams: 0 = every answer correct, 1 = a
// wrong or failed operation, 2 = the run could not be made.
func run(args []string, started time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "census, paper, serve-corpus or serve-inline")
	seed := fs.Int64("seed", 1, "workload seed: fixes the inputs and their order")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository checkout")
	daemon := fs.String("daemon", "", "fourshadesd binary (serve workloads)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fsbench: need --workload (census, paper, serve-corpus, serve-inline), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		root:     *root,
		daemon:   *daemon,
		outDir:   filepath.Join(*root, ".bench_build", "out"),
		started:  started,
		log:      stderr,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		extra:    map[string]metric{},
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return 2
	}
	if err := fn(b); err != nil {
		fmt.Fprintf(stderr, "fsbench: %s: %v\n", *workload, err)
		return 2
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %s: %v\n", *workload, err)
		return 2
	}
	b.printReport(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "fsbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result assembles the result line from the metrics of the run's mode. An
// end-to-end metric the workload did not measure is an error; a per-layer
// metric it did not measure reads 0.
func (b *bench) result() (result, error) {
	res := result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if b.traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{b.layer[d.name], d.unit}
		}
		return res, nil
	}
	for _, d := range endToEnd {
		v, ok := b.e2e[d.name]
		if !ok || v <= 0 {
			return res, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}

// printReport writes the human-readable report: the environment, every
// metric of the run's mode and the extra ones, one per line.
func (b *bench) printReport(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  nproc %d  GOMAXPROCS %d  %s\n",
		b.workload, b.seed, b.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "attempted %d  failed %d  error_rate %g share\n",
		b.attempted.Load(), b.failed.Load(), float64(b.failed.Load())/float64(max(1, b.attempted.Load())))
	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %16.6f %s\n", d.name, vals[d.name], d.unit)
	}
	names := make([]string, 0, len(b.extra))
	for n := range b.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6f %s\n", n, b.extra[n].Value, b.extra[n].Unit)
	}
}

// phase runs rep back to back until the budget is spent, and at least
// minReps times, and returns each repetition's wall time in seconds as rep
// reports it. A repetition that would not fit the remaining budget, judged
// by the median elapsed time of the repetitions so far, is not started.
func phase(budget time.Duration, minReps int, rep func() (time.Duration, error)) ([]float64, error) {
	start := time.Now()
	var walls, took []float64
	for {
		if len(walls) >= minReps {
			next := time.Duration(median(took) * float64(time.Second))
			if time.Since(start)+next > budget {
				return walls, nil
			}
		}
		t0 := time.Now()
		d, err := rep()
		if err != nil {
			return walls, err
		}
		walls = append(walls, d.Seconds())
		took = append(took, time.Since(t0).Seconds())
	}
}

// noteWalls records how many repetitions a phase ran and their spread
// within the run (interquartile range over median).
func (b *bench) noteWalls(walls []float64) {
	b.note("reps", float64(len(walls)), "count")
	b.note("wall_spread_in_run", summarize(walls).spread(), "share")
}

// writeLayers writes the run's full layer table (result-line metrics and
// extra ones) and its spans under outDir.
func (b *bench) writeLayers(tr *tracer) error {
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	all := map[string]metric{}
	for _, d := range perLayer {
		all[d.name] = metric{b.layer[d.name], d.unit}
	}
	for n, m := range b.extra {
		all[n] = m
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-layers.json", data, 0o644); err != nil {
		return err
	}
	return tr.write(base + "-spans.json")
}

// addSelfTimes notes each layer's self time per repetition, from the spans.
func (b *bench) addSelfTimes(spans []span, reps int) {
	for layer, d := range selfTimes(spans) {
		b.note("self."+layer+"_s", d.Seconds()/float64(max(1, reps)), "s")
	}
}

// memDelta is the allocation and GC-cycle growth between two MemStats.
func memDelta(a, b *runtime.MemStats) (allocMB, gcs float64) {
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.NumGC - a.NumGC)
}

// Command e2ebench is the end-to-end benchmark of the Mr. Scan
// reproduction. It drives three workloads through the program's public
// entry points — RunPoints, the mrscand HTTP API and the streaming
// engine — checks every output against an exact DBSCAN oracle of its own
// (oracle.go), and prints one JSON result line:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the benchmark's own spans are written as a
// Chrome trace under --trace-out. See README.md for the workloads, the
// metrics and how each maps onto the program's layers.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload batch-skewed --seed 1 --seconds 25 --trace 0
//	bash e2ebench/run.sh --steady 5 --workload serve-mixed --seconds 25
//	bash e2ebench/run.sh --overhead --workload stream-firehose --seconds 25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricSpec{
	{"points_per_s", "points/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer that is not on its path (the stream workload runs no
// partitioner; batch runs no server).
var perLayer = []metricSpec{
	{"partition.phase_ms", "ms"},
	{"partition.plan_ms", "ms"},
	{"partition.split_ms", "ms"},
	{"partition.imbalance", "ratio"},
	{"partition.shadow_ratio", "ratio"},
	{"lustre.write_ops", "count"},
	{"lustre.write_seeks", "count"},
	{"lustre.write_bytes", "bytes"},
	{"lustre.write_sim_ms", "ms"},
	{"lustre.read_sim_ms", "ms"},
	{"cluster.phase_ms", "ms"},
	{"gdbscan.classify_ms", "ms"},
	{"gdbscan.expand_ms", "ms"},
	{"gdbscan.border_ms", "ms"},
	{"gdbscan.slowest_leaf_ms", "ms"},
	{"gdbscan.dense_box_share", "ratio"},
	{"gdbscan.seed_rounds", "count"},
	{"gdbscan.collisions", "count"},
	{"gpusim.launches", "count"},
	{"gpusim.transfer_bytes", "bytes"},
	{"gpusim.pool_hit_ratio", "ratio"},
	{"merge.phase_ms", "ms"},
	{"merge.combine_ms", "ms"},
	{"mrnet.bytes", "bytes"},
	{"mrnet.packets", "count"},
	{"sweep.phase_ms", "ms"},
	{"sweep.border_noise_points", "count"},
	{"sweep.dbdc_quality", "ratio"},
	{"checkpoint.saves", "count"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.save_ms", "ms"},
	{"http.submit_ms", "ms"},
	{"http.result_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.polls_per_job", "count"},
	{"loadgen.lag_ms", "ms"},
	{"stream.dirty_cells", "count"},
	{"stream.core_cells", "count"},
	{"stream.pairs_rebuilt", "count"},
	{"stream.border_cells", "count"},
	{"stream.snapshot_ms", "ms"},
	{"stream.state_bytes", "bytes"},
	{"stream.tick_p90_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	{"cpu_s_per_op", "s"},
}

// bench carries one run's settings and its tracing hub.
type bench struct {
	seed    int64
	seconds time.Duration
	// hub records the benchmark's own spans in a traced run; nil (which
	// records nothing) otherwise.
	hub *telemetry.Hub
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	// problems lists output-check failures; any makes the run incorrect.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*bench) (*outcome, error){
	"batch-skewed":    runBatch,
	"serve-mixed":     runServe,
	"stream-firehose": runStream,
}

func main() {
	workload := flag.String("workload", "", "batch-skewed | serve-mixed | stream-firehose")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics and writes the benchmark's spans")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "e2ebench-trace"), "directory for traced-run artifacts")
	steady := flag.Int("steady", 0, "rerun the workload this many times in fresh processes and print each end-to-end metric's spread")
	overhead := flag.Bool("overhead", false, "run the workload untraced and traced in fresh processes and print the difference")
	coldBatch := flag.Int("cold-batch", -1, "time one cold RunPoints call on this batch input (used by batch set-up)")
	flag.Parse()

	if *coldBatch >= 0 {
		if err := coldBatchChild(*seed, *coldBatch); err != nil {
			fail(err)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok {
		fail(fmt.Errorf("unknown workload %q (want batch-skewed, serve-mixed or stream-firehose)", *workload))
	}
	switch {
	case *steady > 0:
		if err := steadiness(*workload, *seed, *seconds, *steady); err != nil {
			fail(err)
		}
		return
	case *overhead:
		if err := traceOverhead(*workload, *seed, *seconds, *traceOut); err != nil {
			fail(err)
		}
		return
	}

	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		b.hub = telemetry.New(nil)
	}
	out, err := workloads[*workload](b)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *workload, err))
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	if b.hub != nil {
		if err := writeTrace(*traceOut, *workload, *seed, b.hub, out); err != nil {
			fail(err)
		}
	}
	specs, values := endToEnd, out.e2e
	if b.hub != nil {
		specs, values = perLayer, out.layers
	}
	printResult(out, specs, values)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func printResult(out *outcome, specs []metricSpec, values map[string]float64) {
	res := resultJSON{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(specs)),
	}
	for _, s := range specs {
		res.Metrics[s.name] = metricJSON{Value: values[s.name], Unit: s.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// writeTrace saves a traced run's artifacts: the per-layer and
// end-to-end numbers as JSON, and the benchmark's spans as a Chrome
// trace (load it in chrome://tracing or Perfetto).
func writeTrace(dir, workload string, seed int64, hub *telemetry.Hub, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	doc, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed,
		"end_to_end": out.e2e, "per_layer": out.layers,
		"attempted": out.attempted, "failed": out.failed, "problems": out.problems,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".layers.json", doc, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := hub.Trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is this process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeMeter measures the Go runtime's work over a timed loop.
type runtimeMeter struct {
	alloc uint64
	gcs   uint32
	cpu   float64
}

func startMeter() runtimeMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMeter{alloc: ms.TotalAlloc, gcs: ms.NumGC, cpu: cpuSeconds()}
}

// record stores the per-operation allocation, GC and CPU figures since
// the meter started.
func (m runtimeMeter) record(layers map[string]float64, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops < 1 {
		ops = 1
	}
	layers["go.alloc_mb_per_op"] = float64(ms.TotalAlloc-m.alloc) / (1 << 20) / float64(ops)
	layers["go.gc_cycles_per_op"] = float64(ms.NumGC-m.gcs) / float64(ops)
	layers["cpu_s_per_op"] = (cpuSeconds() - m.cpu) / float64(ops)
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

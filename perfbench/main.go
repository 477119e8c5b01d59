// Command perfbench is Janus's end-to-end benchmark. It runs one workload
// per process — fleet, regen, trigger, or daemon — checks the program's
// outputs on every run, and prints one JSON result as its last line of
// standard output. With -trace 1 it instead runs the workload's traced
// pass and prints the per-layer ledger.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is the run's output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// outcome is what a workload run hands back to main: the gated (or,
// traced, per-layer) metrics, operation counts, the report of
// workload-specific figures, and any correctness failures.
type outcome struct {
	metrics   metricSet
	report    metricSet
	attempted int64
	failed    int64
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "fleet, regen, trigger, or daemon")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer ledger")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	var (
		out *outcome
		err error
	)
	switch *workload {
	case "fleet", "regen", "trigger":
		spec, _ := simSpecFor(*workload, *seed)
		if *trace == 1 {
			out, err = traceSim(spec, start)
		} else {
			out, err = measureSim(spec, start, budget)
		}
	case "daemon":
		if *trace == 1 {
			out, err = traceDaemon(*seed, start)
		} else {
			out, err = measureDaemon(*seed, start, budget)
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (fleet, regen, trigger, daemon)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *workload, p)
	}
	if out.report != nil {
		out.report.print(os.Stderr, fmt.Sprintf("%s seed %d: workload report", *workload, *seed))
	}
	if *trace == 1 {
		// Every traced run reports the whole ledger; a layer the
		// workload does not exercise reads 0.
		for _, pl := range perLayer {
			if _, ok := out.metrics[pl.name]; !ok {
				out.metrics.set(pl.name, 0, pl.unit)
			}
		}
		out.metrics.print(os.Stderr, fmt.Sprintf("%s seed %d: per-layer ledger", *workload, *seed))
	}
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// perLayer lists the traced run's ledger entries, layer by layer.
var perLayer = []struct{ name, unit string }{
	{"profile.calls", "count"}, {"profile.s", "s"},
	{"synth.calls", "count"}, {"synth.s", "s"}, {"synth.hints", "count"},
	{"synth.distinct_frac", "frac"}, {"synth.serve_frac", "frac"},
	{"replay.requests", "count"}, {"replay.s", "s"},
	{"adapter.decisions", "count"}, {"adapter.s", "s"}, {"adapter.memo_frac", "frac"}, {"adapter.hit_frac", "frac"},
	{"platform.self_s", "s"}, {"platform.serve_frac", "frac"}, {"platform.us_per_req", "us"},
	{"park.parks", "count"}, {"park.wakes", "count"}, {"park.wait_s", "s"},
	{"cluster.acquires", "count"}, {"cluster.cold_frac", "frac"}, {"cluster.peak_pods", "count"}, {"cluster.churn", "count"},
	{"autoscale.ticks", "count"}, {"autoscale.s", "s"}, {"autoscale.regen_s", "s"}, {"autoscale.swaps", "count"},
	{"catalog.mb", "MB"}, {"catalog.parse_ms", "ms"}, {"catalog.load_ms", "ms"},
	{"catalog.auth_ns", "ns"}, {"catalog.admit_ns", "ns"}, {"catalog.lookup_ns", "ns"},
	{"httpapi.handler_us", "us"}, {"httpapi.socket_us", "us"},
	{"obs.events", "count"}, {"obs.overhead_frac", "frac"},
	{"runtime.cpu_s", "s"}, {"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MB"}, {"runtime.allocs_per_op", "count"},
	{"ledger.unattributed_s", "s"}, {"ledger.unattributed_frac", "frac"},
	{"slo_attainment", "frac"}, {"pod_seconds", "pod-s"}, {"sim_p50_ms", "ms"}, {"sim_p99_ms", "ms"},
	{"decide_rps", "1/s"}, {"decide_p50_ms", "ms"}, {"decide_p99_ms", "ms"}, {"reload_ms", "ms"},
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// startPass begins a measured pass from a collected heap returned to the
// OS, and restarts the process's resident high-water mark there (Linux
// /proc/self/clear_refs), so each pass's peak is its own rather than
// whatever an earlier pass or the collector's timing left resident.
func startPass() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset resident high-water mark: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runtimeSample is a point reading of the Go runtime and the process's
// CPU time, taken around a serve phase.
type runtimeSample struct {
	mem runtime.MemStats
	cpu time.Duration
}

func sampleRuntime() runtimeSample {
	var s runtimeSample
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// recordRuntime sets the runtime.* ledger entries for the phase between
// two samples that served ops operations.
func recordRuntime(m metricSet, before, after runtimeSample, ops int64) {
	m.set("runtime.cpu_s", (after.cpu - before.cpu).Seconds(), "s")
	m.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count")
	m.set("runtime.alloc_mb", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20), "MB")
	if ops > 0 {
		m.set("runtime.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(ops), "count")
	}
}

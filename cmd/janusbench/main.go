// Command janusbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Usage:
//
//	janusbench -experiment all                 # everything (paper scale)
//	janusbench -experiment fig4 -quick         # one figure, reduced scale
//	janusbench -experiment fig9 -parallelism 4 # bound the worker pool
//	janusbench -experiment dag                 # arbitrary-DAG scenario
//	janusbench -experiment fleet -cpuprofile fleet.pprof  # profile a grid
//	janusbench -experiment replay -quick -trace out.ndjson -parallelism 1  # event trace
//	janusbench -experiment replay -quick -timeline -prom metrics.prom      # telemetry
//	janusbench -list                           # names + descriptions
//
// Run -list for the experiment catalog. The sp experiment serves the
// series-parallel Video Analyze scenario (fork-join on the cluster
// substrate) and its arrival-rate sweep; dag serves the six-node
// ML-inference DAG whose cross edge no stage decomposition can express;
// mix serves the multi-tenant scenario — the IA chain, VA chain, and
// series-parallel Video Analyze merged into one arrival stream on a
// shared multi-node cluster — with per-tenant and aggregate tables, a
// placement-policy comparison, and a node-count scale-out sweep; replay
// serves a non-stationary burst+diurnal schedule over the ia/va/dag
// catalog under static pools, the elastic warm-pool autoscaler, and the
// autoscaler with online hint regeneration (the bilateral loop closed
// mid-run); fleet scales the same non-stationary grid to a 200-node
// cluster and O(100k+) requests; trigger serves the dynamic
// trigger-based workflow — conditional branch, data-dependent map
// width, bounded retries, and an externally timed gate — comparing
// static worst-case planning against online shape-aware planning on
// the identical request stream and trigger queue.
//
// Serving points fan out over a worker pool (-parallelism, default
// GOMAXPROCS); results are identical at every setting because requests
// carry pre-sampled runtime conditions.
//
// -json switches stdout to a machine-readable result array (one element
// per experiment, with typed per-row results where the experiment
// defines them), so benchmark trajectories can be recorded as
// BENCH_*.json files.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"janus/internal/experiment"
	"janus/internal/obs"
)

type runner func(*experiment.Suite) (fmt.Stringer, error)

type stringerFunc func() string

func (f stringerFunc) String() string { return f() }

func wrap(s string) fmt.Stringer { return stringerFunc(func() string { return s }) }

// exp pairs an experiment's driver with the one-line description -list
// prints. rows, when set, extracts the experiment's typed per-row results
// for -json; experiments without an extractor emit text only.
type exp struct {
	run  runner
	desc string
	rows func(*experiment.Suite) (any, error)
}

var experiments = map[string]exp{
	"fig1a": {run: func(s *experiment.Suite) (fmt.Stringer, error) { return s.Fig1a() },
		desc: "slack CDF of all vs the top-100 functions in an Azure-like trace (motivation)"},
	"fig1b": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.Fig1b()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig1b(rows)), nil
	}, desc: "latency variance across working sets (motivation)"},
	"fig1c": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.Fig1c()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig1c(rows)), nil
	}, desc: "co-location interference slowdowns (motivation)"},
	"fig2": {run: func(s *experiment.Suite) (fmt.Stringer, error) { return s.Fig2(50) },
		desc: "early vs late binding per request, CPU normalized by the optimum (motivation)"},
	"fig4": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		panels, err := s.Fig4()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig4(panels)), nil
	}, desc: "end-to-end latency distributions per system"},
	"fig5": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		panels, err := s.Fig5()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig5(panels)), nil
	}, desc: "resource consumption and SLO compliance per system"},
	"fig6": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.Fig6()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig6(rows)), nil
	}, desc: "Janus vs Janus+ on IA over SLOs 3-7 s: consumption and synthesis cost"},
	"fig7": {run: func(s *experiment.Suite) (fmt.Stringer, error) { return s.Fig7() },
		desc: "timeout and resilience of the TS function vs allocation, percentile and concurrency"},
	"fig8": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.Fig8()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig8(rows)), nil
	}, desc: "hints-table condensing: raw vs condensed sizes"},
	"fig9": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.Fig9()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFig9(rows)), nil
	}, desc: "SLO sweep: consumption normalized by Optimal for ORION, GrandSLAM and Janus"},
	"sp": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.SPScenario()
		if err != nil {
			return nil, err
		}
		sweep, err := s.SPArrivalSweep()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatSPScenario(rows) + "\n" + experiment.FormatSPArrivalSweep(sweep)), nil
	}, desc: "series-parallel Video Analyze scenario + arrival sweep"},
	"dag": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		rows, err := s.DAGScenario()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatDAGScenario(rows)), nil
	}, desc: "six-node ML-inference DAG with a cross edge (node-granular engine)",
		rows: func(s *experiment.Suite) (any, error) { return s.DAGScenario() }},
	"replay": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		runs, err := s.ReplayScenario()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatReplay(runs)), nil
	}, desc: "non-stationary replay: static pools vs autoscaler vs autoscaler+online-regen",
		rows: replayRows((*experiment.Suite).ReplayScenario)},
	"fleet": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		runs, err := s.FleetScenario()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatReplay(runs)), nil
	}, desc: "fleet-scale replay: the non-stationary grid on 200 nodes, O(100k+) requests",
		rows: replayRows((*experiment.Suite).FleetScenario)},
	"fleetshard": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		runs, err := s.FleetShardScenario()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatFleetShard(runs)), nil
	}, desc: "sharded fleet sweep: the fleet stream split over independent cells, deterministically merged",
		rows: replayRows((*experiment.Suite).FleetShardScenario)},
	"trigger": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		runs, err := s.TriggerScenario()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatTrigger(runs)), nil
	}, desc: "dynamic trigger orchestration: static worst-case vs online shape-aware planning",
		rows: func(s *experiment.Suite) (any, error) {
			runs, err := s.TriggerScenario()
			if err != nil {
				return nil, err
			}
			var rows []experiment.ReplayRow
			for _, run := range runs {
				rows = append(rows, run.Rows...)
				rows = append(rows, run.Aggregate)
			}
			return rows, nil
		}},
	"mix": {run: func(s *experiment.Suite) (fmt.Stringer, error) {
		scenario, err := s.MixScenario()
		if err != nil {
			return nil, err
		}
		placement, err := s.MixPlacement()
		if err != nil {
			return nil, err
		}
		sweep, err := s.MixScaleOut()
		if err != nil {
			return nil, err
		}
		return wrap(experiment.FormatMixScenario(scenario) + "\n" +
			experiment.FormatMixPlacement(placement) + "\n" +
			experiment.FormatMixScaleOut(sweep)), nil
	}, desc: "multi-tenant mixed workloads on a shared cluster"},
	"table1": {run: func(s *experiment.Suite) (fmt.Stringer, error) { return s.Table1() },
		desc: "headline consumption/latency comparison (Table I)"},
	"table2": {run: func(s *experiment.Suite) (fmt.Stringer, error) { return s.Table2() },
		desc: "head weight vs head-function allocation and explored percentile (Table II)"},
	"overhead": {run: func(s *experiment.Suite) (fmt.Stringer, error) { return s.Overhead() },
		desc: "synthesis and adaptation overhead measurements"},
}

// replayRows builds the -json row extractor of a schedule grid: each
// run's per-tenant rows followed by its aggregate row.
func replayRows(scenario func(*experiment.Suite) ([]*experiment.ReplayRun, error)) func(*experiment.Suite) (any, error) {
	return func(s *experiment.Suite) (any, error) {
		runs, err := scenario(s)
		if err != nil {
			return nil, err
		}
		var rows []experiment.ReplayRow
		for _, run := range runs {
			rows = append(rows, run.Rows...)
			rows = append(rows, run.Aggregate)
		}
		return rows, nil
	}
}

// order fixes the -experiment all sequence.
var order = []string{
	"fig1a", "fig1b", "fig1c", "fig2", "fig4", "fig5",
	"fig6", "fig7", "fig8", "fig9", "sp", "dag", "mix", "replay", "fleet", "fleetshard", "trigger", "table1", "table2", "overhead",
}

// listString renders the -list output: one "name  description" line per
// experiment, in the -experiment all order, with the descriptions aligned
// past the longest name.
func listString() string {
	width := 0
	for _, n := range order {
		width = max(width, len(n))
	}
	var b strings.Builder
	for _, n := range order {
		fmt.Fprintf(&b, "%-*s %s\n", width, n, experiments[n].desc)
	}
	return b.String()
}

// resolveTargets maps the -experiment flag to the ordered list of
// experiments to run: the full sequence for "all", the single named
// experiment otherwise.
func resolveTargets(name string) ([]string, error) {
	if name == "all" {
		return order, nil
	}
	if _, ok := experiments[name]; !ok {
		return nil, fmt.Errorf("unknown experiment %q (use -list)", name)
	}
	return []string{name}, nil
}

// resolveParallelism validates the -parallelism flag: 0 means GOMAXPROCS,
// negative values are rejected (a silent fallback would hide typos like
// -parallelism -8).
func resolveParallelism(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("parallelism must be >= 0, got %d", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// benchRow is one machine-readable result row: the experiment's typed row
// struct flattened through its JSON field names.
type benchRow map[string]any

// benchResult is the -json schema for one experiment run. Text always
// carries the human rendering; Rows is present when the experiment
// defines a typed row extractor.
type benchResult struct {
	Experiment string     `json:"experiment"`
	ElapsedMs  int64      `json:"elapsed_ms"`
	Rows       []benchRow `json:"rows,omitempty"`
	Text       string     `json:"text"`
}

// toBenchRows flattens a typed row slice into generic rows by a JSON
// round-trip, so every experiment's row struct shares one -json schema
// without hand-written converters.
func toBenchRows(rows any) ([]benchRow, error) {
	data, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	var out []benchRow
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// runOne executes one experiment and assembles its result record.
func runOne(n string, suite *experiment.Suite) (benchResult, error) {
	start := time.Now()
	out, err := experiments[n].run(suite)
	if err != nil {
		return benchResult{}, err
	}
	res := benchResult{
		Experiment: n,
		ElapsedMs:  time.Since(start).Milliseconds(),
		Text:       out.String(),
	}
	if rowsFn := experiments[n].rows; rowsFn != nil {
		// Row extraction reuses the suite's run caches, so this costs no
		// second serving run.
		typed, err := rowsFn(suite)
		if err != nil {
			return benchResult{}, err
		}
		res.Rows, err = toBenchRows(typed)
		if err != nil {
			return benchResult{}, err
		}
	}
	return res, nil
}

func main() {
	name := flag.String("experiment", "all", "experiment to run (or 'all')")
	quick := flag.Bool("quick", false, "reduced scale (fast sanity runs)")
	parallelism := flag.Int("parallelism", 0,
		"concurrent suite points (0 means GOMAXPROCS); any value yields identical results")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable per-row results as a JSON array")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation (heap) profile taken after the run to this file")
	tracePath := flag.String("trace", "",
		"stream the replay scenarios' event trace to this NDJSON file (use -parallelism 1 for a reproducible file)")
	timeline := flag.Bool("timeline", false, "print a per-second event timeline of the replay scenarios after the run")
	promPath := flag.String("prom", "", "write a Prometheus text snapshot of the serving metrics to this file after the run")
	flag.Parse()

	if *list {
		fmt.Print(listString())
		return
	}
	par, err := resolveParallelism(*parallelism)
	if err != nil {
		fmt.Fprintf(os.Stderr, "janusbench: %v\n", err)
		os.Exit(2)
	}
	targets, err := resolveTargets(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "janusbench: %v\n", err)
		os.Exit(2)
	}
	suite := experiment.NewSuite()
	if *quick {
		suite = experiment.QuickSuite()
	}
	suite.SetParallelism(par)
	// Observability attachments: the NDJSON trace, the printed timeline,
	// and the Prometheus snapshot all ride the replay serving runs. With
	// none requested the suite keeps a nil tracer and the engine's
	// zero-cost-off path.
	var sinks []obs.Tracer
	var ndjson *obs.NDJSONWriter
	var traceBuf *bufio.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: -trace: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		traceBuf = bufio.NewWriterSize(f, 1<<20)
		ndjson = obs.NewNDJSONWriter(traceBuf)
		sinks = append(sinks, ndjson)
	}
	var tl *obs.Timeline
	if *timeline {
		tl = obs.NewTimeline(time.Second)
		sinks = append(sinks, tl)
	}
	suite.SetTracer(obs.Multi(sinks...))
	var reg *obs.Registry
	if *promPath != "" {
		reg = obs.NewRegistry()
		suite.SetMetrics(reg)
	}
	// Profiling covers the experiment runs only (setup excluded), so a
	// perf PR can profile the exact grid it optimizes:
	//
	//	janusbench -experiment fleet -cpuprofile fleet.pprof
	//	go tool pprof -top fleet.pprof
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "janusbench: -memprofile: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "janusbench: -memprofile: %v\n", err)
				os.Exit(2)
			}
		}()
	}
	var results []benchResult
	for _, n := range targets {
		res, err := runOne(n, suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if *jsonOut {
			results = append(results, res)
			continue
		}
		fmt.Printf("==== %s (%v) ====\n%s\n", n, time.Duration(res.ElapsedMs)*time.Millisecond, res.Text)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: %v\n", err)
			os.Exit(1)
		}
	}
	if ndjson != nil {
		err := ndjson.Err()
		if err == nil {
			err = traceBuf.Flush()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: -trace: %v\n", err)
			os.Exit(1)
		}
	}
	if reg != nil {
		f, err := os.Create(*promPath)
		if err == nil {
			err = obs.WritePrometheus(f, reg)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "janusbench: -prom: %v\n", err)
			os.Exit(1)
		}
	}
	if tl != nil {
		fmt.Printf("==== timeline ====\n%s", tl.Summary())
	}
}

// TestBenchGuard is the benchmark-regression harness: it replays the
// alloc-critical benchmarks for a fixed stretch of time (guardBenchtime)
// and diffs allocs/op, and B/op where a ceiling is set, against the
// thresholds committed in BENCH_PR31.json (the `guard` section). The
// indexed cluster's contract is that pickNode and the acquire/release
// cycle never allocate on the hot path, and the serving plane's contract
// is that a park/wake cycle at fleet depth (BenchmarkParkWake), the event
// loop's schedule/fire cycle (BenchmarkEngine) and an adapter decide
// (BenchmarkAdapterDecide) are allocation-free steady-state. The
// synthesizer's budget sweep (BenchmarkSynthesizeCone) allocates per
// table, not per budget, the profiler (BenchmarkProfileGroup) per grid
// level, not per draw, request generation (BenchmarkGenerateWorkload) per
// worker chunk, not per request, a catalog reload
// (BenchmarkCatalogReload) per decoded value, not per range or per
// compared bundle, and a dynamic replay (BenchmarkDynamicServing) per
// run, not per request or trigger, a static replay under a pool
// controller (BenchmarkReplayServing) per control tick, pool build and
// created pod, not per decision, and a janusd decide through the HTTP
// handler (BenchmarkDecideHandler) for its body, response and request
// recorder, never for a metric lookup, and a regeneration cycle of the
// online loop (BenchmarkRegenTick) for the swap action, its closure and
// the adapter's deployed record, never for a decide or an epoch-window
// read. An accidental closure capture or slice growth there would be
// invisible to the functional tests and only show up as a fleet-grid
// slowdown months later, so CI fails the moment allocs/op crosses a
// threshold. The serving benchmarks and request generation also carry
// B/op ceilings: a change that widens a per-stage record, keeps a state
// for every request rather than for those in flight, or splits a
// request's draws into per-group slices adds bytes, not allocations an
// allocs/op ceiling would notice, so only a bytes ceiling holds such a
// memory saving.
//
// Knobs:
//
//	JANUS_BENCHGUARD=off   skip the guard (triaging an intentional
//	                       allocation change; update BENCH_PR31.json's
//	                       thresholds in the same commit instead of
//	                       leaving the knob set)
//
// The guard shells out to `go test -bench` per package so each
// benchmark runs in its own test binary with its package's setup, rather
// than through testing.Benchmark (which cannot reach other packages'
// benchmarks and skips their TestMain setup).
//
// Why a time-based -benchtime rather than 1x: allocs/op is the process's
// whole malloc count over the timed loop divided by b.N. At b.N = 1 a
// microsecond-long iteration of an allocation-free benchmark absorbs any
// stray runtime allocation that lands inside it, and under CPU load
// BenchmarkFlightRecorderEmit read 1 or 5 allocs/op in about 4% of runs.
// Run for guardBenchtime instead, cheap benchmarks reach b.N in the
// thousands to millions: a one-off stray truncates to 0/op while a
// per-call allocation still reads at least 1/op. Benchmarks whose single
// iteration outlasts guardBenchtime still run exactly once, so each
// must time fresh work per iteration rather than a memoized result.
package janus_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// guardFile is the trajectory file whose `guard` section the guard
// enforces; the measurement sections are documented in docs/BENCHMARKS.md.
const guardFile = "BENCH_PR31.json"

// guardBenchtime is the -benchtime every guarded benchmark runs for.
const guardBenchtime = "100ms"

// benchTrajectory mirrors the slice of the trajectory file the guard
// consumes. Each ceiling map takes package path -> benchmark name ->
// maximum allowed value per op.
type benchTrajectory struct {
	Guard struct {
		AllocsPerOp map[string]map[string]int64 `json:"allocs_per_op"`
		// BytesPerOp is optional: a benchmark listed only here still runs
		// and is held to its B/op ceiling alone.
		BytesPerOp map[string]map[string]int64 `json:"bytes_per_op"`
	} `json:"guard"`
}

// benchResult is one benchmark's measured cost per op.
type benchResult struct {
	allocs, bytes int64
}

func TestBenchGuard(t *testing.T) {
	if os.Getenv("JANUS_BENCHGUARD") == "off" {
		t.Skip("JANUS_BENCHGUARD=off")
	}
	if testing.Short() {
		t.Skip("bench guard runs real benchmarks; skipped in -short mode")
	}
	raw, err := os.ReadFile(guardFile)
	if err != nil {
		t.Fatalf("reading committed trajectory: %v", err)
	}
	var traj benchTrajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("parsing %s: %v", guardFile, err)
	}
	if len(traj.Guard.AllocsPerOp) == 0 {
		t.Fatalf("%s has no guard.allocs_per_op thresholds; the guard is guarding nothing", guardFile)
	}
	byPkg := map[string][]string{}
	for _, ceilings := range []map[string]map[string]int64{traj.Guard.AllocsPerOp, traj.Guard.BytesPerOp} {
		for pkg, thresholds := range ceilings {
			for name := range thresholds {
				if !slices.Contains(byPkg[pkg], name) {
					byPkg[pkg] = append(byPkg[pkg], name)
				}
			}
		}
	}
	pkgs := make([]string, 0, len(byPkg))
	for pkg := range byPkg {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		names := byPkg[pkg]
		sort.Strings(names)
		got, err := runBenchmarks(pkg, names)
		if err != nil {
			t.Fatalf("package %s: %v", pkg, err)
		}
		for _, name := range names {
			res, ok := got[name]
			if !ok {
				t.Errorf("%s: benchmark %s did not run — renamed or deleted? update %s's guard section", pkg, name, guardFile)
				continue
			}
			if max, ok := traj.Guard.AllocsPerOp[pkg][name]; ok {
				t.Logf("%s: %s %d allocs/op (threshold %d)", pkg, name, res.allocs, max)
				if res.allocs > max {
					t.Errorf("%s: %s allocates %d/op, threshold %d/op — the hot path regressed to per-call allocation (set JANUS_BENCHGUARD=off only while triaging; fix or re-baseline %s)",
						pkg, name, res.allocs, max, guardFile)
				}
			}
			if max, ok := traj.Guard.BytesPerOp[pkg][name]; ok {
				t.Logf("%s: %s %d B/op (threshold %d)", pkg, name, res.bytes, max)
				if res.bytes > max {
					t.Errorf("%s: %s allocates %d B/op, threshold %d B/op — a per-op record or arena grew (set JANUS_BENCHGUARD=off only while triaging; fix or re-baseline %s)",
						pkg, name, res.bytes, max, guardFile)
				}
			}
		}
	}
}

// runBenchmarks executes the named benchmarks for guardBenchtime each and
// returns their measured allocs/op and B/op.
func runBenchmarks(pkg string, names []string) (map[string]benchResult, error) {
	pattern := "^(" + strings.Join(names, "|") + ")$"
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", guardBenchtime, "-benchmem", "-timeout", "15m", pkg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench failed: %v\n%s", err, out.String())
	}
	got := make(map[string]benchResult)
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		// A result line reads: BenchmarkName-8  1  123 ns/op  0 B/op  0 allocs/op
		if len(fields) < 7 || !strings.HasPrefix(fields[0], "Benchmark") || fields[len(fields)-1] != "allocs/op" || fields[len(fields)-3] != "B/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		allocs, err := strconv.ParseInt(fields[len(fields)-2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable allocs/op in %q: %v", line, err)
		}
		bytesPerOp, err := strconv.ParseInt(fields[len(fields)-4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable B/op in %q: %v", line, err)
		}
		got[name] = benchResult{allocs: allocs, bytes: bytesPerOp}
	}
	return got, nil
}

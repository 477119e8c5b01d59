package platform_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"janus/internal/experiment"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/workflow"
)

// generationWorkflows are the workflows the chunked generator is pinned
// on: the ia chain, the va fork-join, the cross-edge DAG and the dynamic
// trigger-ml workflow.
func generationWorkflows(tb testing.TB) []*workflow.Workflow {
	tb.Helper()
	dag, err := experiment.DAGWorkflow()
	if err != nil {
		tb.Fatal(err)
	}
	trig, err := experiment.TriggerWorkflow()
	if err != nil {
		tb.Fatal(err)
	}
	return []*workflow.Workflow{workflow.IntelligentAssistant(), workflow.VideoAnalyze(), dag, trig}
}

func generationConfig(tb testing.TB, w *workflow.Workflow, n int, corr float64) platform.WorkloadConfig {
	tb.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.4, 0.4, 0.2})
	if err != nil {
		tb.Fatal(err)
	}
	return platform.WorkloadConfig{
		Workflow:          w,
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 40,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		StageCorrelation:  corr,
		Seed:              13,
	}
}

// TestChunkedGenerationMatchesReference pins the chunked generator to
// the sequential one it replaced: at 1, 2 and 8 workers, every request —
// arrival, draws and dynamic resolution — is deeply equal to the
// reference's, for Poisson, closed-loop and explicit arrivals, at
// workloads smaller than one chunk and spanning several, in all three
// stage-correlation regimes.
func TestChunkedGenerationMatchesReference(t *testing.T) {
	for _, w := range generationWorkflows(t) {
		for _, n := range []int{100, 2100} {
			for _, corr := range []float64{0, 0.5, 1} {
				for _, arrivals := range []string{"poisson", "closed", "explicit"} {
					t.Run(fmt.Sprintf("%s/n=%d/corr=%g/%s", w.Name(), n, corr, arrivals), func(t *testing.T) {
						cfg := generationConfig(t, w, n, corr)
						switch arrivals {
						case "closed":
							cfg.ArrivalRatePerSec = 0
						case "explicit":
							cfg.N = 0
							cfg.Arrivals = make([]time.Duration, n)
							for i := range cfg.Arrivals {
								cfg.Arrivals[i] = time.Duration(i/3) * 7 * time.Millisecond
							}
						}
						want, err := platform.RefGenerateWorkload(cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{1, 2, 8} {
							got, err := platform.GenerateWorkloadOn(cfg, workers)
							if err != nil {
								t.Fatal(err)
							}
							if len(got) != len(want) {
								t.Fatalf("%d workers: %d requests, reference %d", workers, len(got), len(want))
							}
							for i := range want {
								if !reflect.DeepEqual(got[i], want[i]) {
									t.Fatalf("%d workers: request %d differs from the reference:\n got %+v\nwant %+v", workers, i, got[i], want[i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestChunkedRequestsDoNotShareCapacity checks that requests carved from
// one chunk's arenas stay independent: appending to a request's flat
// Draws, or to a dynamic replica's draws, never writes into the next
// request. (Attempts returns a copy, so its result shares nothing.)
func TestChunkedRequestsDoNotShareCapacity(t *testing.T) {
	for _, w := range generationWorkflows(t) {
		cfg := generationConfig(t, w, 600, 0.5)
		reqs, err := platform.GenerateWorkloadOn(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := platform.RefGenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		marker := perfmodel.Draw{WS: -1, Slowdown: -1, Noise: -1}
		for i := 0; i+1 < len(reqs); i++ {
			r := reqs[i]
			_ = append(r.Draws, marker)
			if r.Dyn != nil {
				for _, step := range w.DynamicSteps() {
					for rep := 0; ; rep++ {
						d := r.Dyn.NodeDraws(step, rep)
						if d == nil {
							break
						}
						_ = append(d, marker)
					}
				}
			}
			if !reflect.DeepEqual(reqs[i+1], want[i+1]) {
				t.Fatalf("%s: appending to request %d changed request %d", w.Name(), i, i+1)
			}
		}
	}
}

// benchWorkloads returns a trigger-ml and a cross-edge DAG workload
// configuration of n requests each, at the experiments' stage
// correlation.
func benchWorkloads(tb testing.TB, n int) []platform.WorkloadConfig {
	wfs := generationWorkflows(tb)
	return []platform.WorkloadConfig{
		generationConfig(tb, wfs[3], n, experiment.StageCorrelation),
		generationConfig(tb, wfs[2], n, experiment.StageCorrelation),
	}
}

// TestGenerateWorkloadAllocatesPerChunk pins the work of generation:
// a workload allocates per worker chunk, never per request, so sixteen
// times the requests on the same workers costs no more allocations
// beyond a few arena blocks.
func TestGenerateWorkloadAllocatesPerChunk(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var allocs []float64
		for _, n := range []int{2000, 32000} {
			cfgs := benchWorkloads(t, n)
			allocs = append(allocs, testing.AllocsPerRun(2, func() {
				for _, cfg := range cfgs {
					if _, err := platform.GenerateWorkloadOn(cfg, workers); err != nil {
						t.Fatal(err)
					}
				}
			}))
		}
		t.Logf("%d workers: %v allocations at 2000 and 32000 requests", workers, allocs)
		if allocs[1] > allocs[0]+4*float64(workers) {
			t.Errorf("%d workers: %v allocations at 2000 requests but %v at 32000: generation allocates per request", workers, allocs[0], allocs[1])
		}
	}
}

// BenchmarkGenerateWorkload times set-up's request generation: each op
// draws a fresh 5000-request trigger-ml workload and a fresh
// 5000-request cross-edge DAG workload on the benchmark's -cpu workers,
// at most four. Requests, draws and dynamic resolutions are carved from
// per-chunk arenas, so allocs/op scales with workers, not requests
// (TestGenerateWorkloadAllocatesPerChunk), and the bench guard pins it;
// capping the workers keeps its ceiling valid on any host. An op is
// short enough that the guard's benchtime runs several.
func BenchmarkGenerateWorkload(b *testing.B) {
	cfgs := benchWorkloads(b, 5000)
	workers := min(runtime.GOMAXPROCS(0), 4)
	b.ReportAllocs()
	for b.Loop() {
		for _, cfg := range cfgs {
			if _, err := platform.GenerateWorkloadOn(cfg, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"janus/internal/workflow"
)

// Point identifies one suite point: one serving system executing one
// workload (workflow at an SLO, batch size). Points are the unit of
// parallelism — each point's discrete-event run is independent of every
// other point because requests carry pre-sampled runtime conditions (see
// platform.GenerateWorkload), so reordering or overlapping points cannot
// change any result.
type Point struct {
	// Workflow carries the workload shape and the SLO under test. Chains
	// and fork-join (series-parallel) workflows are both valid.
	Workflow *workflow.Workflow
	// Batch is the paper's concurrency level.
	Batch int
	// System names the serving system (see AllSystems).
	System string
	// ArrivalRatePerSec overrides the suite's Poisson arrival rate for
	// this point; <= 0 uses the suite default. Draws are rate-independent,
	// so a rate sweep subjects the identical request sequence to
	// increasing admission pressure.
	ArrivalRatePerSec float64
}

func (p Point) String() string {
	name := "<nil>"
	if p.Workflow != nil {
		name = fmt.Sprintf("%s/%v", p.Workflow.Name(), p.Workflow.SLO())
	}
	s := fmt.Sprintf("%s/b%d/%s", name, p.Batch, p.System)
	if p.ArrivalRatePerSec > 0 {
		s += fmt.Sprintf("/r%g", p.ArrivalRatePerSec)
	}
	return s
}

// Progress reports one completed point. Done counts completions so far
// (including this one); completions arrive in whatever order workers
// finish, but Progress callbacks themselves are serialized.
type Progress struct {
	Done  int
	Total int
	Point Point
	// Run is the point's summary, nil if the point failed.
	Run *SystemRun
	// Err is the point's failure, nil on success.
	Err error
}

// Runner fans suite points out over a bounded worker pool. Each worker
// serves its point on a cloned executor (platform.Executor.Clone), so the
// single-goroutine cluster/simclock invariant holds inside every worker
// while distinct points run concurrently. Shared suite artifacts
// (profiles, deployments, workloads, serving runs) go through the suite's
// memo: the first worker to need one builds it, the rest wait and share
// it, and later callers get it without rebuilding.
//
// Results are returned in input order regardless of completion order, and
// every artifact is derived from the suite's seed, so a Runner at any
// parallelism produces byte-identical results to the sequential path —
// the paired-comparison property the paper's normalized numbers rely on.
type Runner struct {
	// Suite supplies caches, scale, and the serving plane. Required.
	Suite *Suite
	// Parallelism bounds concurrent points; <= 0 uses the suite's
	// configured parallelism (default GOMAXPROCS).
	Parallelism int
	// OnProgress, if set, observes every completed point. Calls are
	// serialized; keep the callback cheap.
	OnProgress func(Progress)
}

// Run serves every point and returns results[i] for points[i]. It stops
// early when ctx is cancelled or a point fails. On failure it reports the
// lowest-index error among points that ran, and context errors surface
// only when no point failed on its own — so the cause of a fail-fast
// cancellation is never masked by its consequences.
func (r *Runner) Run(ctx context.Context, points []Point) ([]*SystemRun, error) {
	if r.Suite == nil {
		return nil, fmt.Errorf("experiment: runner needs a suite")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i, p := range points {
		if p.Workflow == nil {
			return nil, fmt.Errorf("experiment: point %d has no workflow", i)
		}
		if p.Batch <= 0 {
			return nil, fmt.Errorf("experiment: point %d (%s) has batch %d", i, p, p.Batch)
		}
	}
	if len(points) == 0 {
		return nil, nil
	}

	par := r.Parallelism
	if par <= 0 {
		par = r.Suite.parallelism()
	}
	if par > len(points) {
		par = len(points)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*SystemRun, len(points))
	errs := make([]error, len(points))
	idx := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes progress reporting
		done int
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := runCtx.Err(); err != nil {
					errs[i] = err
				} else {
					results[i], errs[i] = r.Suite.runPointOne(runCtx, points[i])
					if errs[i] != nil {
						cancel() // fail fast; error selection below stays deterministic
					}
				}
				mu.Lock()
				done++
				if r.OnProgress != nil {
					r.OnProgress(Progress{Done: done, Total: len(points), Point: points[i], Run: results[i], Err: errs[i]})
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range points {
		select {
		case idx <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Report the lowest-index real failure so the error does not depend on
	// completion order; context errors lose to point errors because they
	// are a consequence of the fail-fast cancel, not a cause.
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return nil, fmt.Errorf("experiment: point %s: %w", points[i], err)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	for _, res := range results {
		if res == nil {
			// The feed stopped before this point was handed out — the
			// context was cancelled mid-run without any point recording it.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
	}
	return results, nil
}

// EvaluationPoints enumerates the paper's full §V serving grid — every
// evaluation panel crossed with every system — as runner points. Fig 4 and
// Fig 5 consume exactly this set; it is also the standard multi-core
// benchmark workload for the concurrent runner.
func EvaluationPoints() ([]Point, error) {
	var out []Point
	for _, p := range panels() {
		w, err := panelWorkflow(p)
		if err != nil {
			return nil, err
		}
		for _, sys := range AllSystems() {
			out = append(out, Point{Workflow: w, Batch: p.Batch, System: sys})
		}
	}
	return out, nil
}

func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

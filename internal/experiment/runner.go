package experiment

import (
	"fmt"
	"runtime"

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

// EvaluationPoints enumerates the paper's full §V serving grid — every
// evaluation panel crossed with every system — as suite points. Fig 4 and
// Fig 5 consume exactly this set; it is also the standard multi-core
// benchmark workload for RunPoints.
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

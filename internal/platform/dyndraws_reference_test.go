package platform_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"janus/internal/experiment"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/rng"
	"janus/internal/workflow"
)

// refDynDraws is the map-keyed resolution the flat DynDraws record
// replaced, kept with its sampler as the differential oracle.
type refDynDraws struct {
	Choice    map[string]int
	Width     map[string]int
	Attempts  map[string][]int
	NodeDraws map[string][][]perfmodel.Draw
}

// refSampleDynDraws is the map-based sampleDynDraws the flat sampler
// replaced, unchanged but for its result type: it resolves one request's
// dynamic shape from its seeded stream, looking every step's spec up per
// request.
func refSampleDynDraws(cfg platform.WorkloadConfig, dynStream, common *rng.Stream, shared bool) *refDynDraws {
	w := cfg.Workflow
	dyn := &refDynDraws{
		Choice:    map[string]int{},
		Width:     map[string]int{},
		Attempts:  map[string][]int{},
		NodeDraws: map[string][][]perfmodel.Draw{},
	}
	for _, step := range w.DynamicSteps() {
		d, _ := w.Dynamic(step)
		if d.Choice != nil {
			weights := d.Choice.Weights
			if weights == nil {
				weights = make([]float64, len(w.Successors(step)))
				for i := range weights {
					weights[i] = 1
				}
			}
			dyn.Choice[step] = dynStream.Choice(weights)
			continue
		}
		if d.Map == nil && d.Retry == nil {
			continue // await-only steps execute exactly once off the base draw
		}
		width := 1
		if d.Map != nil {
			decay := d.Map.Decay
			if decay == 0 {
				decay = workflow.DefaultMapDecay
			}
			width = dynStream.TruncGeometric(d.Map.MaxWidth, decay)
			dyn.Width[step] = width
		}
		attempts := make([]int, width)
		if d.Retry != nil {
			for r := range attempts {
				for attempts[r] < d.Retry.MaxRetries && dynStream.Float64() < d.Retry.FailureProb {
					attempts[r]++
				}
			}
		}
		dyn.Attempts[step] = attempts
		node, _ := w.Node(step)
		f := cfg.Functions[node.Function]
		nodeDraws := make([][]perfmodel.Draw, width)
		for r := range nodeDraws {
			nodeDraws[r] = make([]perfmodel.Draw, attempts[r]+1)
			for a := range nodeDraws[r] {
				drawStream := dynStream
				if shared {
					drawStream = common.Split("replay")
				}
				coloc := cfg.Colocation.Sample(drawStream)
				nodeDraws[r][a] = f.NewDraw(drawStream, cfg.Batch, coloc, cfg.Interference)
			}
		}
		dyn.NodeDraws[step] = nodeDraws
	}
	return dyn
}

// refResolutions seeds every request's reference resolution the way
// GenerateWorkload does: the request's stream, its shared-draw coin, and
// the stream's "common" and "dyn" children. A child depends only on its
// parent's seed, so the base draws need not be replayed.
func refResolutions(cfg platform.WorkloadConfig) []*refDynDraws {
	root := rng.New(cfg.Seed).Split("workload/" + cfg.Workflow.Name())
	out := make([]*refDynDraws, cfg.N)
	for i := range out {
		stream := root.Split(fmt.Sprintf("req/%d", i))
		shared := stream.Float64() < cfg.StageCorrelation
		out[i] = refSampleDynDraws(cfg, stream.Split("dyn"), stream.Split("common"), shared)
	}
	return out
}

// mixedDynWorkflow covers the annotations the trigger workflows lack: a
// three-way choice with nil (uniform) weights, a retry-only step, and an
// await step that also retries.
func mixedDynWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := workflow.NewDynamic("mixed-dyn", 2*time.Second,
		[]workflow.Node{
			{Name: "src", Function: "fe"},
			{Name: "pick", Function: "redis-read"},
			{Name: "left", Function: "icl"},
			{Name: "right", Function: "ico"},
			{Name: "fix", Function: "aes-encrypt"},
			{Name: "wait", Function: "redis-read"},
			{Name: "sink", Function: "socket-comm"},
		},
		[][2]string{
			{"src", "pick"},
			{"pick", "left"},
			{"pick", "right"},
			{"pick", "wait"},
			{"left", "fix"},
			{"fix", "wait"},
			{"right", "wait"},
			{"wait", "sink"},
		},
		[]workflow.DynamicNode{
			{Step: "pick", Choice: &workflow.ChoiceSpec{}},
			{Step: "fix", Retry: &workflow.RetrySpec{MaxRetries: 3, FailureProb: 0.4}},
			{Step: "wait", Await: true, Retry: &workflow.RetrySpec{MaxRetries: 2, FailureProb: 0.3}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sameDraw(a, b perfmodel.Draw) bool {
	return math.Float64bits(a.WS) == math.Float64bits(b.WS) &&
		math.Float64bits(a.Slowdown) == math.Float64bits(b.Slowdown) &&
		math.Float64bits(a.Noise) == math.Float64bits(b.Noise)
}

// TestDynDrawsMatchReference pins the flat resolution against the
// map-based sampler it replaced: for every step of every request, the
// choice, width and attempt counts are equal and every draw is
// bit-identical, across the three stage-correlation regimes (never,
// sometimes and always replaying the shared stream).
func TestDynDrawsMatchReference(t *testing.T) {
	trigML, err := experiment.TriggerWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workflow.Workflow{platform.TrigWorkflow(t), trigML, mixedDynWorkflow(t)} {
		for _, corr := range []float64{0, 0.5, 1} {
			t.Run(fmt.Sprintf("%s/corr=%g", w.Name(), corr), func(t *testing.T) {
				cfg := platform.WorkloadConfig{
					Workflow:          w,
					Functions:         perfmodel.Catalog(),
					N:                 400,
					Batch:             1,
					ArrivalRatePerSec: 5,
					Colocation:        coloc,
					Interference:      interfere.Default(),
					StageCorrelation:  corr,
					Seed:              11,
				}
				reqs, err := platform.GenerateWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := refResolutions(cfg)
				steps := append(w.DynamicSteps(), "src", "ingest") // plus unannotated names
				retried, wide := false, false
				for i, r := range reqs {
					want := ref[i]
					for _, step := range steps {
						wantChoice, ok := want.Choice[step]
						if !ok {
							wantChoice = -1
						}
						if got := r.Dyn.Choice(step); got != wantChoice {
							t.Fatalf("request %d step %q choice %d, reference %d", i, step, got, wantChoice)
						}
						if got := r.Dyn.Width(step); got != want.Width[step] {
							t.Fatalf("request %d step %q width %d, reference %d", i, step, got, want.Width[step])
						}
						wantAttempts := want.Attempts[step]
						got := r.Dyn.Attempts(step)
						if (got == nil) != (wantAttempts == nil) || !slices.Equal(got, wantAttempts) {
							t.Fatalf("request %d step %q attempts %v, reference %v", i, step, got, wantAttempts)
						}
						wide = wide || want.Width[step] > 1
						for rep, row := range want.NodeDraws[step] {
							draws := r.Dyn.NodeDraws(step, rep)
							if len(draws) != len(row) {
								t.Fatalf("request %d step %q replica %d carries %d draws, reference %d", i, step, rep, len(draws), len(row))
							}
							for a := range row {
								if !sameDraw(draws[a], row[a]) {
									t.Fatalf("request %d step %q replica %d attempt %d draw %+v, reference %+v", i, step, rep, a, draws[a], row[a])
								}
							}
							retried = retried || len(row) > 1
						}
						if d := r.Dyn.NodeDraws(step, len(want.NodeDraws[step])); d != nil {
							t.Fatalf("request %d step %q answers draws past its last replica: %v", i, step, d)
						}
					}
				}
				if !retried || (w.Name() != "mixed-dyn" && !wide) {
					t.Fatalf("resolutions not diverse: retried=%v wide=%v", retried, wide)
				}
			})
		}
	}
}

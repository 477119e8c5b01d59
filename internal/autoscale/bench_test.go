package autoscale

import (
	"testing"
	"time"

	"janus/internal/adapter"
	"janus/internal/hints"
)

// BenchmarkRegenTick times one cycle of the online regeneration hook:
// MinDecisions decides that miss the deployed table, the Tick that sees
// the epoch miss rate over the threshold and fires, and the hot-swap
// action that Tick returns. Synthesize hands back a prebuilt bundle, so
// the op measures the hook and Adapter.Replace, not synthesis. The
// swapped-in bundle covers the same budgets as the deployed one, so the
// next op's decides miss again and every op fires. The hook allocates the
// action slice and its closure, and Replace its deployed record; the
// misses and the epoch-window reads allocate nothing.
func BenchmarkRegenTick(b *testing.B) {
	const minDecisions = 30
	bundle := regenBundle(b, 2000)
	a, err := adapter.New(bundle)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRegen(RegenConfig{
		Adapter:      a,
		MinDecisions: minDecisions,
		Synthesize:   func(int) (*hints.Bundle, error) { return bundle, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var now time.Duration
	for b.Loop() {
		now += time.Second
		for j := 0; j < minDecisions; j++ {
			if _, err := a.Decide(0, 400*time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		acts := r.Tick(now)
		if len(acts) != 1 {
			b.Fatalf("tick at %v returned %d actions, want the swap", now, len(acts))
		}
		acts[0].Do(now + acts[0].Delay)
	}
}

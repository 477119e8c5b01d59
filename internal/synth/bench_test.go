package synth

import "testing"

// BenchmarkSynthesizeCone sweeps the IA workflow's whole-workflow cone
// (three layers, Janus mode) at the 1 ms step the experiments use: one op
// is one raw table. The sweep writes every hint into one slice and every
// plan into one arena per worker, so allocs/op is a per-table constant
// however many budgets the range holds; the bench guard pins it.
func BenchmarkSynthesizeCone(b *testing.B) {
	s, err := New(Config{Profiles: iaProfiles(b), Mode: ModeJanus, BudgetStepMs: 1})
	if err != nil {
		b.Fatal(err)
	}
	s.workers = 1
	budgets := 0
	b.ReportAllocs()
	for b.Loop() {
		raw, err := s.GenerateSuffix(0)
		if err != nil {
			b.Fatal(err)
		}
		budgets += len(raw.Hints)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(budgets), "ns/hint")
}

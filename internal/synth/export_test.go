package synth

// SetWorkers sets the number of workers s spreads a budget sweep over,
// for the external tests.
func SetWorkers(s *Synthesizer, n int) { s.workers = n }

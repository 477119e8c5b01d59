package profile

// SetWorkers sets the number of workers p spreads a profile's grid
// levels over, for the external tests.
func SetWorkers(p *Profiler, n int) { p.workers = n }

package platform

// TrigWorkflow exposes the dynamic test workflow to the external test
// package, which also imports packages that import this one.
var TrigWorkflow = trigWorkflow

// GenerateWorkloadOn generates a workload on a chosen number of workers,
// and RefGenerateWorkload is the sequential reference it must equal.
var (
	GenerateWorkloadOn  = generateWorkload
	RefGenerateWorkload = refGenerateWorkload
)

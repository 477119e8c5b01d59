package platform

// TrigWorkflow exposes the dynamic test workflow to the external test
// package, which also imports packages that import this one.
var TrigWorkflow = trigWorkflow

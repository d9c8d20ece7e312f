package monitor

// ReportEventRate and BenchMonitor give the external test package
// (schedule_test.go) the in-package benches' ev/s metric and loop.
var (
	ReportEventRate = reportEventRate
	BenchMonitor    = benchMonitor
)

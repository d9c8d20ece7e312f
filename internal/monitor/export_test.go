package monitor

// ReportEventRate gives the external test package (schedule_test.go)
// the in-package benches' ev/s metric.
var ReportEventRate = reportEventRate

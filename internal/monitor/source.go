package monitor

// Streaming ingestion: the pull side of the monitor. A Source yields
// events one at a time, so a trace can be monitored without ever
// materialising it — the wire-format TraceReader and the schedgen
// generator both feed monitors this way. The push side is simply
// Monitor.Step.

// Source is a pull-based stream of monitor events. Next returns the next
// event and ok=true, ok=false at the end of the stream, or an error
// (after which the stream must not be read further).
type Source interface {
	Next() (e Event, ok bool, err error)
}

// Feed consumes src to the end of the stream, stepping the monitor on
// every event. On a source error, monitoring stops and the error is
// returned; the reports accumulated so far remain readable.
func (m *Monitor) Feed(src Source) error {
	return feedEvents(src, m.Step)
}

// SliceSource adapts an in-memory event slice to the Source interface.
type SliceSource struct {
	Events []Event
	next   int
}

// Next yields the next slice element.
func (s *SliceSource) Next() (Event, bool, error) {
	if s.next >= len(s.Events) {
		return Event{}, false, nil
	}
	e := s.Events[s.next]
	s.next++
	return e, true, nil
}

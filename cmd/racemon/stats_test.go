package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"localdrf/internal/monitor"
	"localdrf/internal/prog"
)

// TestStatsScrapesAreStable: /stats publishes monotonic counters and the
// uptime, no rates against "the previous scrape", so two back-to-back
// scrapes of an idle run differ only in uptime_ns — a scraper
// cannot shrink another's rate window.
func TestStatsScrapesAreStable(t *testing.T) {
	m := monitor.New(2, []monitor.LocDecl{{Name: "x", Kind: prog.NonAtomic}})
	m.StepBatch([]monitor.Event{{Thread: 0, Kind: monitor.WriteNA}, {Thread: 1, Kind: monitor.WriteNA}})
	m.Stats()
	tl := &telemetry{start: time.Now()}
	tl.attach(m.Obs())
	scrape := func() []byte {
		doc := tl.stats()
		doc.UptimeNs = 0
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := scrape(), scrape()
	if !bytes.Equal(first, second) {
		t.Fatalf("back-to-back scrapes differ:\n%s\n%s", first, second)
	}
	if !bytes.Contains(first, []byte(`"monitor.events":2`)) {
		t.Fatalf("scrape lacks the monitored events:\n%s", first)
	}
}

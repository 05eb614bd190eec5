package figures

// Determinism-under-observability tests (DESIGN.md §11): the
// instrumentation is host-side bookkeeping only, so experiment and
// campaign renderings must stay byte-identical while a concurrent
// scraper hammers the registry and a run trace records every phase.
// The suite runs under -race in CI, which also makes these tests the
// concurrent scrape-while-executing race check.

import (
	"bytes"
	"context"
	"io"
	"testing"

	"camouflage/internal/attack"
	"camouflage/internal/obs"
)

// withConcurrentScrapes runs f while a background goroutine
// continuously renders the Prometheus exposition and takes JSON
// snapshots.
func withConcurrentScrapes(t *testing.T, f func()) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := obs.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			obs.TakeSnapshot()
		}
	}()
	f()
	close(stop)
	<-done
}

// TestFigureBytesUnchangedUnderScrape renders the 2-vCPU workload
// figure quiet, then again with run tracing enabled and scrapes
// running concurrently: the bytes must match.
func TestFigureBytesUnchangedUnderScrape(t *testing.T) {
	render := func(trace *obs.Run) string {
		var buf bytes.Buffer
		_, err := RunAllWith(context.Background(), &buf, RunOptions{
			IDs: []string{"fig4"}, CPUs: 2, Trace: trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	quiet := render(nil)
	run := obs.BeginRun("test", "fig4-scraped")
	var scraped string
	withConcurrentScrapes(t, func() {
		scraped = render(run)
	})
	run.End()
	if quiet != scraped {
		t.Fatalf("fig4 rendering changed under scraping:\n--- quiet ---\n%s\n--- scraped ---\n%s", quiet, scraped)
	}
	tr := run.Trace()
	if len(tr.Events) != 1 || tr.Events[0].Name != "exp:fig4" {
		t.Fatalf("trace events = %+v, want one exp:fig4 phase", tr.Events)
	}
	if tr.Events[0].Counters[obs.CRetired.SampleName()] == 0 {
		t.Fatalf("traced phase recorded no retired instructions: %+v", tr.Events[0].Counters)
	}
}

// TestCampaignBytesUnchangedUnderScrape double-runs a 2-vCPU campaign,
// the second run under concurrent scraping, and compares renderings.
func TestCampaignBytesUnchangedUnderScrape(t *testing.T) {
	render := func() string {
		rep, err := attack.RunCampaignContext(context.Background(), attack.CampaignOptions{
			Mutations: 2, Seed: 5, Levels: []string{"full"}, CPUs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return buf.String()
	}
	quiet := render()
	var scraped string
	withConcurrentScrapes(t, func() {
		scraped = render()
	})
	if quiet != scraped {
		t.Fatalf("campaign rendering changed under scraping:\n--- quiet ---\n%s\n--- scraped ---\n%s", quiet, scraped)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"relcomplete/internal/obs"
)

// The ring gives back what it was given: /debug/requests serves each
// record as it was added, span tree and verdict included.
func TestRequestRingKeepsRecords(t *testing.T) {
	verdict := false
	rec := RequestRecord{
		Time: time.Now(), TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Problem: "orders",
		Property: "rcdp", Decider: "rcdp_strong", Status: 200, Verdict: &verdict,
		QueueWaitMS: 0.25, WallMS: 1.5, SpansDropped: 3,
		Spans: []obs.SpanData{{
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7",
			ParentID: "00f067aa0ba902b8", Name: "rcdp_strong", Start: time.Now(), DurationMS: 0.125,
			Attrs: map[string]string{"models_checked": "2", "workers": "1"},
		}},
	}
	r := NewRequestRing(2)
	r.Add(rec)
	r.Add(RequestRecord{Problem: "other", Status: 404, Kind: KindNotFound})
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(r.Snapshot()[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ring changed the record:\n got %s\nwant %s", got, want)
	}
}

// Adds and snapshots race safely: a snapshot decodes buffers outside
// the lock while later adds overwrite their slots.
func TestRequestRingConcurrent(t *testing.T) {
	r := NewRequestRing(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(RequestRecord{Problem: "p", Status: 200 + i%3})
				for _, rec := range r.Snapshot() {
					if rec.Problem != "p" || rec.Status < 200 || rec.Status > 202 {
						t.Errorf("snapshot record: %+v", rec)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 4 || r.Total() != 800 {
		t.Fatalf("Len=%d Total=%d", r.Len(), r.Total())
	}
}

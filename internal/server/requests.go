// The recent-request ring behind GET /debug/requests: a bounded,
// concurrency-safe record of the last N decide requests — trace id,
// tenant, outcome, queue-wait/wall durations and the finished span
// tree — so a 429 or a slow decide is explicable minutes later
// without having run the request with tracing enabled.
package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"relcomplete/internal/obs"
)

// DefaultRequestRing is the request-ring depth when Config leaves
// RequestRingSize zero.
const DefaultRequestRing = 128

// RequestRecord is one completed decide request as kept in the ring
// and served by /debug/requests.
type RequestRecord struct {
	Time         time.Time      `json:"time"`
	TraceID      string         `json:"trace_id,omitempty"`
	Problem      string         `json:"problem"`
	Property     string         `json:"property,omitempty"`
	Decider      string         `json:"decider,omitempty"`
	Status       int            `json:"status"`
	Kind         string         `json:"kind,omitempty"`
	Verdict      *bool          `json:"verdict,omitempty"`
	QueueWaitMS  float64        `json:"queue_wait_ms"`
	WallMS       float64        `json:"wall_ms"`
	Spans        []obs.SpanData `json:"spans,omitempty"`
	SpansDropped int64          `json:"spans_dropped,omitempty"`
}

// RequestRing retains the most recent capN request records. All
// methods are safe for concurrent use; a nil *RequestRing is inert.
//
// Each record is kept as its JSON encoding, the form /debug/requests
// serves. A record and its span tree are about sixteen small objects,
// a map per span among them, allocated all through the request;
// retained for the next capN requests, they pin heap spans that the
// request's garbage shared, and the heap in use after a collection
// grows with the request rate. One buffer per record pins at most one,
// and an exact-size one pins no more than the record needs: a record
// grown by append keeps up to twice its length, and with those the
// heap in use read 21% higher on heavy_search.
type RequestRing struct {
	mu    sync.Mutex
	recs  [][]byte
	next  int
	total int64
	capN  int
}

// NewRequestRing builds a ring keeping capN records (capN <= 0 →
// DefaultRequestRing).
func NewRequestRing(capN int) *RequestRing {
	if capN <= 0 {
		capN = DefaultRequestRing
	}
	return &RequestRing{capN: capN}
}

// Add records one completed request, overwriting the oldest past the
// cap.
func (r *RequestRing) Add(rec RequestRecord) {
	if r == nil {
		return
	}
	buf := getScratch()
	*buf = rec.appendJSON((*buf)[:0])
	b := make([]byte, len(*buf))
	copy(b, *buf)
	putScratch(buf)
	r.mu.Lock()
	if len(r.recs) < r.capN {
		r.recs = append(r.recs, b)
	} else {
		r.recs[r.next] = b
	}
	r.next = (r.next + 1) % r.capN
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained records, most recent first, decoded
// afresh: their times carry no monotonic clock reading.
func (r *RequestRing) Snapshot() []RequestRecord {
	if r == nil {
		return nil
	}
	// Stored buffers are never written again, so they decode outside
	// the lock.
	r.mu.Lock()
	encoded := make([][]byte, len(r.recs))
	// Walk backwards from the slot before next, wrapping once.
	for i := range encoded {
		encoded[i] = r.recs[(r.next-1-i+len(r.recs))%len(r.recs)]
	}
	r.mu.Unlock()
	out := make([]RequestRecord, len(encoded))
	for i, b := range encoded {
		// The ring's own encoding of a RequestRecord decodes.
		_ = json.Unmarshal(b, &out[i])
	}
	return out
}

// Len is the number of retained records; Total counts every record
// ever added.
func (r *RequestRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

func (r *RequestRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// DebugRequestsResponse is the GET /debug/requests body.
type DebugRequestsResponse struct {
	Total    int64           `json:"total"`
	Requests []RequestRecord `json:"requests"`
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DebugRequestsResponse{
		Total:    s.requests.Total(),
		Requests: s.requests.Snapshot(),
	})
}

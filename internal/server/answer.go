package server

// The decide answer and its /debug/requests record, written by hand:
// the bytes are exactly those encoding/json writes for the same
// values (answer_test.go compares the two), built straight from the
// request's metrics view with no map, no sort and no reflection on a
// plain decide. The other endpoints answer through writeJSON.

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"relcomplete/internal/obs"
)

// scratch holds the buffers a decide's answer and ring record are
// encoded into; maxScratch keeps a buffer that grew past it (a large
// ?trace=1 answer) out of the pool.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

const maxScratch = 64 << 10

func getScratch() *[]byte { return scratch.Get().(*[]byte) }

func putScratch(b *[]byte) {
	if cap(*b) <= maxScratch {
		scratch.Put(b)
	}
}

// writeAnswer sends a decide answer: resp with stats as its stats, as
// one line of compact JSON in a single Write.
func writeAnswer(w http.ResponseWriter, status int, resp *DecideResponse, stats *obs.Metrics) {
	buf := getScratch()
	*buf = append(resp.appendJSON((*buf)[:0], stats), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(*buf)
	putScratch(buf)
}

// appendJSON appends resp as json.Marshal writes it with
// stats.Snapshot() as its Stats: the fields in struct order under
// their omitempty rules. resp.Stats itself is not read.
func (resp *DecideResponse) appendJSON(dst []byte, stats *obs.Metrics) []byte {
	dst = append(dst, `{"problem":`...)
	dst = obs.AppendJSONString(dst, resp.Problem)
	dst = append(dst, `,"property":`...)
	dst = obs.AppendJSONString(dst, resp.Property)
	if resp.Model != "" {
		dst = append(dst, `,"model":`...)
		dst = obs.AppendJSONString(dst, resp.Model)
	}
	if resp.Verdict != nil {
		dst = append(dst, `,"verdict":`...)
		dst = strconv.AppendBool(dst, *resp.Verdict)
	}
	if resp.Counterexample != "" {
		dst = append(dst, `,"counterexample":`...)
		dst = obs.AppendJSONString(dst, resp.Counterexample)
	}
	dst = append(dst, `,"certain_answers":`...)
	if resp.CertainAnswers == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range resp.CertainAnswers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = obs.AppendJSONString(dst, a)
		}
		dst = append(dst, ']')
	}
	if resp.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = obs.AppendJSONString(dst, resp.Error)
	}
	if resp.Kind != "" {
		dst = append(dst, `,"kind":`...)
		dst = obs.AppendJSONString(dst, resp.Kind)
	}
	// The detail objects ride on error answers only; made of strings
	// and integers, they always encode.
	if resp.Budget != nil {
		b, _ := json.Marshal(resp.Budget)
		dst = append(append(dst, `,"budget":`...), b...)
	}
	if resp.Deadline != nil {
		b, _ := json.Marshal(resp.Deadline)
		dst = append(append(dst, `,"deadline":`...), b...)
	}
	if resp.RetryAfterMS != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, resp.RetryAfterMS, 10)
	}
	dst = append(dst, `,"elapsed_ms":`...)
	dst = obs.AppendJSONFloat(dst, resp.ElapsedMS)
	dst = append(dst, `,"queue_wait_ms":`...)
	dst = obs.AppendJSONFloat(dst, resp.QueueWaitMS)
	dst = append(dst, `,"stats":`...)
	dst = stats.AppendJSON(dst)
	if resp.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = obs.AppendJSONString(dst, resp.TraceID)
	}
	if tr := resp.Trace; tr != nil {
		dst = append(dst, `,"trace":{"trace_id":`...)
		dst = obs.AppendJSONString(dst, tr.TraceID)
		dst = append(dst, `,"spans":`...)
		dst = appendSpansJSON(dst, tr.Spans)
		if tr.Dropped != 0 {
			dst = append(dst, `,"dropped":`...)
			dst = strconv.AppendInt(dst, tr.Dropped, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendJSON appends rec as json.Marshal writes it. A record's time
// must lie in years 0 to 9999, the range encoding/json accepts.
func (rec *RequestRecord) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"time":`...)
	dst = appendJSONTime(dst, rec.Time)
	if rec.TraceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = obs.AppendJSONString(dst, rec.TraceID)
	}
	dst = append(dst, `,"problem":`...)
	dst = obs.AppendJSONString(dst, rec.Problem)
	if rec.Property != "" {
		dst = append(dst, `,"property":`...)
		dst = obs.AppendJSONString(dst, rec.Property)
	}
	if rec.Decider != "" {
		dst = append(dst, `,"decider":`...)
		dst = obs.AppendJSONString(dst, rec.Decider)
	}
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(rec.Status), 10)
	if rec.Kind != "" {
		dst = append(dst, `,"kind":`...)
		dst = obs.AppendJSONString(dst, rec.Kind)
	}
	if rec.Verdict != nil {
		dst = append(dst, `,"verdict":`...)
		dst = strconv.AppendBool(dst, *rec.Verdict)
	}
	dst = append(dst, `,"queue_wait_ms":`...)
	dst = obs.AppendJSONFloat(dst, rec.QueueWaitMS)
	dst = append(dst, `,"wall_ms":`...)
	dst = obs.AppendJSONFloat(dst, rec.WallMS)
	if len(rec.Spans) > 0 {
		dst = append(dst, `,"spans":`...)
		dst = appendSpansJSON(dst, rec.Spans)
	}
	if rec.SpansDropped != 0 {
		dst = append(dst, `,"spans_dropped":`...)
		dst = strconv.AppendInt(dst, rec.SpansDropped, 10)
	}
	return append(dst, '}')
}

// appendSpansJSON appends spans as a JSON array, null when nil.
func appendSpansJSON(dst []byte, spans []obs.SpanData) []byte {
	if spans == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSpanJSON(dst, &spans[i])
	}
	return append(dst, ']')
}

// appendSpanJSON appends one span as json.Marshal writes it: its
// attributes in key order.
func appendSpanJSON(dst []byte, sp *obs.SpanData) []byte {
	dst = append(dst, `{"trace_id":`...)
	dst = obs.AppendJSONString(dst, sp.TraceID)
	dst = append(dst, `,"span_id":`...)
	dst = obs.AppendJSONString(dst, sp.SpanID)
	if sp.ParentID != "" {
		dst = append(dst, `,"parent_span_id":`...)
		dst = obs.AppendJSONString(dst, sp.ParentID)
	}
	dst = append(dst, `,"name":`...)
	dst = obs.AppendJSONString(dst, sp.Name)
	dst = append(dst, `,"start":`...)
	dst = appendJSONTime(dst, sp.Start)
	dst = append(dst, `,"duration_ms":`...)
	dst = obs.AppendJSONFloat(dst, sp.DurationMS)
	if sp.Status != "" {
		dst = append(dst, `,"status":`...)
		dst = obs.AppendJSONString(dst, sp.Status)
	}
	if len(sp.Attrs) > 0 {
		var local [8]string
		keys := local[:0]
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"attrs":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = obs.AppendJSONString(dst, k)
			dst = append(dst, ':')
			dst = obs.AppendJSONString(dst, sp.Attrs[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendJSONTime appends t quoted in RFC 3339 with nanoseconds, which
// is what Time.MarshalJSON writes for years 0 to 9999.
func appendJSONTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"')
}

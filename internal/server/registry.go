package server

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"relcomplete/internal/core"
	"relcomplete/internal/ctable"
	"relcomplete/internal/durable"
	"relcomplete/internal/obs"
	"relcomplete/internal/probjson"
)

// Entry is one resident problem: the decoded probjson document, the
// built core.Problem and the c-instance. Every decide runs on the
// problem's master data, CCs and c-instance; one without a query
// override runs on a view of the problem itself, whose plan and lattice
// caches are what make the hot serving path cheap. Entries are
// immutable after load; a PUT on an existing name atomically replaces
// the entry.
type Entry struct {
	Name      string
	Problem   *core.Problem
	CInstance *ctable.CInstance
	Doc       *probjson.Document // kept for info and for bench/rcload's traced replay
	// Bytes is the resident-size charge: the raw document (retained in
	// Raw) plus the built master data's value-keyed rows and membership
	// keys, as measured by relation.Database.ResidentBytes. The charge
	// is deterministic and platform-independent, so eviction behaviour
	// under a byte cap is reproducible.
	Bytes  int64
	Loaded time.Time
	// Raw is the exact acknowledged document — the bytes the WAL and
	// snapshots carry, so recovery restores documents byte-identically.
	Raw []byte
}

// Info is the JSON metadata served for one registry entry.
type Info struct {
	Name      string `json:"name"`
	Bytes     int64  `json:"bytes"`
	Relations int    `json:"relations"`
	CRows     int    `json:"cinstance_rows"`
	Loaded    string `json:"loaded"`
}

func (e *Entry) info() Info {
	return Info{
		Name:      e.Name,
		Bytes:     e.Bytes,
		Relations: len(e.Doc.Schema.Relations),
		CRows:     len(e.Doc.CInstance.Rows),
		Loaded:    e.Loaded.UTC().Format(time.RFC3339),
	}
}

// Registry is the multi-tenant problem store: named probjson instances
// kept resident under a total byte cap, evicted least-recently-used.
// Get and Put touch recency; Delete and eviction drop entries. All
// methods are safe for concurrent use; returned entries stay valid
// (and decidable) after eviction — eviction only stops the registry
// from keeping them resident for future requests.
type Registry struct {
	maxBytes int64
	base     func() core.Options // server-wide options overlay for loaded problems
	metrics  *obs.Metrics
	logger   *slog.Logger

	mu      sync.Mutex
	bytes   int64
	entries map[string]*list.Element // value: *Entry
	lru     *list.List               // front = most recently used

	// durable, when set, write-ahead-logs every Put/Delete before the
	// in-memory mutation: a mutation is acknowledged only once committed.
	// Guarded by mu for ordering (the lock order is r.mu → log.mu,
	// both here and in SnapshotNow).
	durable *durable.Log
}

// SetLogger installs the structured logger eviction warnings go to
// (nil disables them). Call before serving; not synchronised with
// concurrent Puts.
func (r *Registry) SetLogger(l *slog.Logger) { r.logger = l }

// NewRegistry builds a registry holding at most maxBytes of resident
// problems (raw document plus built master representation, see
// Entry.Bytes; 0 = unlimited). base, when non-nil, is applied to every
// loaded problem's Options after the document's own options — the
// server owns parallelism and observability, the document owns budgets.
func NewRegistry(maxBytes int64, base func() core.Options, m *obs.Metrics) *Registry {
	return &Registry{
		maxBytes: maxBytes,
		base:     base,
		metrics:  m,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
	}
}

// DecodeDocument parses raw strictly (unknown fields are errors, as in
// probjson.Decode) but keeps the document, which Entry.Doc retains.
func DecodeDocument(raw []byte) (*probjson.Document, error) {
	var doc probjson.Document
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("probjson: %w", err)
	}
	return &doc, nil
}

// ErrTooLarge reports a document that can never fit under the cap.
type ErrTooLarge struct {
	Bytes, Cap int64
}

func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("document of %d bytes exceeds the registry cap of %d", e.Bytes, e.Cap)
}

// AttachDurable arms write-ahead logging: every later Put/Delete is
// committed to l before it mutates the in-memory state. Call before
// serving (and before Restore).
func (r *Registry) AttachDurable(l *durable.Log) {
	r.mu.Lock()
	r.durable = l
	r.mu.Unlock()
}

// Put loads raw under name, evicting least-recently-used entries until
// the new total fits the byte cap. With durability attached the
// mutation is WAL-committed first — a storage failure leaves the
// in-memory registry untouched and surfaces as a typed 503. It returns
// the loaded entry and whether an entry of that name was replaced.
func (r *Registry) Put(name string, raw []byte) (*Entry, bool, error) {
	return r.put(name, raw, true)
}

// put is Put with the WAL append optional: recovery replay (Restore)
// re-applies already-committed records and must not re-log them.
func (r *Registry) put(name string, raw []byte, persist bool) (*Entry, bool, error) {
	doc, err := DecodeDocument(raw)
	if err != nil {
		return nil, false, err
	}
	p, ci, err := probjson.Build(doc)
	if err != nil {
		return nil, false, err
	}
	if r.base != nil {
		base := r.base()
		if doc.Options.Parallelism == 0 {
			p.Options.Parallelism = base.Parallelism
		}
		p.Options.Obs = base.Obs
		p.Options.SlowOpThreshold = base.SlowOpThreshold
		p.Options.SlowOpSink = base.SlowOpSink
		p.Options.FaultPlan = base.FaultPlan
	}
	e := &Entry{
		Name: name, Problem: p, CInstance: ci, Doc: doc,
		Bytes: int64(len(raw)) + p.Master.ResidentBytes(), Loaded: time.Now(),
		Raw: raw,
	}
	if r.maxBytes > 0 && e.Bytes > r.maxBytes {
		return nil, false, &ErrTooLarge{Bytes: e.Bytes, Cap: r.maxBytes}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if persist && r.durable != nil {
		// Commit before mutate: if the WAL refuses, the PUT never
		// happened — the caller gets a storage error and the previous
		// entry (if any) stays resident and authoritative.
		if err := r.durable.AppendPut(name, raw); err != nil {
			return nil, false, err
		}
	}
	replaced := false
	if el, ok := r.entries[name]; ok {
		r.bytes -= el.Value.(*Entry).Bytes
		r.lru.Remove(el)
		delete(r.entries, name)
		replaced = true
	}
	// Evict from the cold end until the newcomer fits. The newcomer is
	// not yet on the list, so it can never evict itself.
	for r.maxBytes > 0 && r.bytes+e.Bytes > r.maxBytes {
		oldest := r.lru.Back()
		victim := oldest.Value.(*Entry)
		r.bytes -= victim.Bytes
		r.lru.Remove(oldest)
		delete(r.entries, victim.Name)
		r.metrics.Inc(obs.ServerEvictions)
		if r.logger != nil {
			r.logger.LogAttrs(context.Background(), slog.LevelWarn, "problem evicted",
				slog.String("problem", victim.Name),
				slog.Int64("bytes", victim.Bytes),
				slog.String("evicted_for", name),
				slog.Int64("resident_bytes", r.bytes),
				slog.Int64("max_bytes", r.maxBytes),
			)
		}
	}
	r.entries[name] = r.lru.PushFront(e)
	r.bytes += e.Bytes
	r.metrics.Inc(obs.ServerProblemsLoaded)
	return e, replaced, nil
}

// Get returns the named entry and marks it most recently used.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(el)
	return el.Value.(*Entry), true
}

// Delete drops the named entry, reporting whether it existed. With
// durability attached the delete is WAL-committed first; a storage
// failure leaves the entry resident and surfaces as a typed 503.
func (r *Registry) Delete(name string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[name]
	if !ok {
		return false, nil
	}
	if r.durable != nil {
		if err := r.durable.AppendDelete(name); err != nil {
			return false, err
		}
	}
	r.bytes -= el.Value.(*Entry).Bytes
	r.lru.Remove(el)
	delete(r.entries, name)
	return true, nil
}

// Restore replays recovered records into the registry without logging
// them again (they are already durable). A record whose document no
// longer builds — a schema change across versions, say — is skipped
// with a warning rather than failing the boot: serving the restorable
// problems beats serving none. Returns how many records were applied
// and how many skipped.
func (r *Registry) Restore(recs []durable.Record) (applied, skipped int) {
	for _, rec := range recs {
		switch rec.Op {
		case durable.OpPut:
			if _, _, err := r.put(rec.Name, rec.Raw, false); err != nil {
				skipped++
				if r.logger != nil {
					r.logger.LogAttrs(context.Background(), slog.LevelWarn,
						"recovery: skipping unrestorable problem",
						slog.String("problem", rec.Name),
						slog.String("error", err.Error()),
					)
				}
				continue
			}
			applied++
		case durable.OpDelete:
			r.mu.Lock()
			if el, ok := r.entries[rec.Name]; ok {
				r.bytes -= el.Value.(*Entry).Bytes
				r.lru.Remove(el)
				delete(r.entries, rec.Name)
			}
			r.mu.Unlock()
			applied++
		}
	}
	return applied, skipped
}

// SnapshotNow folds the current resident state into a durable
// snapshot, truncating the WAL. The registry mutex is held across
// collecting the records and writing the snapshot, so no Put/Delete
// can commit in the window between them (lock order r.mu → log.mu,
// same as Put). No-op without durability attached.
//
// Note eviction is not a durable delete: an entry evicted by the byte
// cap is still in the WAL and comes back on restart (then gets
// re-evicted). Snapshots garbage-collect that dead weight — the
// snapshot holds only the resident set.
func (r *Registry) SnapshotNow() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.durable == nil {
		return nil
	}
	recs := make([]durable.Record, 0, r.lru.Len())
	for el := r.lru.Back(); el != nil; el = el.Prev() { // oldest first
		e := el.Value.(*Entry)
		recs = append(recs, durable.Record{Op: durable.OpPut, Name: e.Name, Raw: e.Raw})
	}
	return r.durable.Snapshot(recs)
}

// List returns metadata for every resident entry, most recently used
// first.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).info())
	}
	return out
}

// Entries returns every resident entry, most recently used first,
// without touching the LRU order (introspection endpoints: a debug
// scrape must not perturb eviction).
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Entry, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry))
	}
	return out
}

// Len is the number of resident entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// ResidentBytes is the total resident-size charge (see Entry.Bytes)
// across resident entries.
func (r *Registry) ResidentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

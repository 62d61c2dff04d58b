package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"relcomplete/internal/probjson"
)

// docSpec sizes one generated problem document. Every document is the
// paper's running Order/Catalog setting: a data relation
// Order(item, qty) whose items are bounded by the master relation
// Catalog(item) through one containment constraint, and the query
// Q(q) := Order(target, q) asking for the quantities of one catalogue
// item. The c-instance holds one ground row per covered quantity of the
// target item, Other ground rows on random items, and Vars rows
// Order(target, ?v) whose variables range over the qty domain — the
// Corollary 7.1 knob: a decider enumerates Qty^Vars valuations.
type docSpec struct {
	Catalogue int // master Catalog rows
	ItemLen   int // characters per catalogue item (0 = short "itemN" names)
	Qty       int // size of the finite qty domain
	Covered   int // distinct quantities of the target item present as ground rows
	Other     int // ground rows on random catalogue items
	Vars      int // c-table variables
}

// The shape of a document (its docSpec) is a fixed property of the
// workload; the run seed draws only its content: item names, the
// target item, the other rows. So every seed yields a different input
// of the same cost, and run-to-run spread measures the system, not the
// luck of the draw. Strong RCDP holds exactly when Covered == Qty.

// itemNames draws n distinct catalogue item names. Long names carry a
// seeded random body behind a unique index prefix, so interning and
// hashing see realistic strings rather than short sequential ones.
func itemNames(r *rand.Rand, n, length int) []string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	out := make([]string, n)
	for i := range out {
		name := fmt.Sprintf("item%d", i)
		if length > len(name) {
			b := []byte(name + "-")
			for len(b) < length {
				b = append(b, letters[r.Intn(len(letters))])
			}
			name = string(b)
		}
		out[i] = name
	}
	return out
}

// catalogue is the master data of one tenant, shared by all versions
// of its document.
type catalogue struct {
	items  []string
	target string
}

func genCatalogue(r *rand.Rand, spec docSpec) catalogue {
	items := itemNames(r, spec.Catalogue, spec.ItemLen)
	return catalogue{items: items, target: items[r.Intn(len(items))]}
}

// genDocument builds one version of a tenant's document: the tenant's
// catalogue and target stay, the c-instance rows are drawn afresh.
func genDocument(r *rand.Rand, spec docSpec, cat catalogue) *probjson.Document {
	qtys := make([]string, spec.Qty)
	for i := range qtys {
		qtys[i] = fmt.Sprintf("%d", i+1)
	}
	doc := &probjson.Document{
		Schema: probjson.SchemaDoc{Relations: []probjson.RelationDoc{{
			Name:  "Order",
			Attrs: []probjson.AttrDoc{{Name: "item"}, {Name: "qty", Domain: qtys}},
		}}},
		Master: probjson.MasterDoc{
			Relations: []probjson.RelationDoc{{Name: "Catalog", Attrs: []probjson.AttrDoc{{Name: "item"}}}},
			Rows:      map[string][][]string{},
		},
		CCs: []probjson.CCDoc{{
			Name:  "item_bound",
			Left:  "q(i) := Order(i, q)",
			Right: "p(i) := Catalog(i)",
		}},
		Query: probjson.QueryDoc{Calc: fmt.Sprintf("Q(q) := Order('%s', q)", cat.target)},
	}
	rows := make([][]string, len(cat.items))
	for i, it := range cat.items {
		rows[i] = []string{it}
	}
	doc.Master.Rows["Catalog"] = rows

	// Row order and the covered quantities are part of the shape: the
	// deciders stop at the first decisive model, extension or removable
	// row, so drawing them at random would make a seed's cost a lottery.
	ci := make([]probjson.RowDoc, 0, spec.Covered+spec.Other+spec.Vars)
	for _, q := range qtys[:spec.Covered] {
		ci = append(ci, probjson.RowDoc{Rel: "Order", Terms: []string{cat.target, q}})
	}
	for i := 0; i < spec.Other; i++ {
		item := cat.items[r.Intn(len(cat.items))]
		ci = append(ci, probjson.RowDoc{Rel: "Order", Terms: []string{item, qtys[r.Intn(spec.Qty)]}})
	}
	for i := 0; i < spec.Vars; i++ {
		ci = append(ci, probjson.RowDoc{Rel: "Order", Terms: []string{cat.target, fmt.Sprintf("?v%d", i)}})
	}
	doc.CInstance.Rows = ci
	return doc
}

func encodeDocument(doc *probjson.Document) []byte {
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a Document holds only strings, slices and maps
	}
	return b
}

// subRand derives an independent generator for one purpose (a tenant's
// catalogue, one document version, one phase's op stream) from the run
// seed, so adding a draw to one stream never shifts another.
func subRand(seed int64, parts ...int64) *rand.Rand {
	var buf [8]byte
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		for _, b := range buf {
			h ^= uint64(b)
			h *= 0x100000001B3
		}
		h ^= h >> 29
	}
	return rand.New(rand.NewSource(int64(h)))
}

// inputs are one run's generated documents, docs[tenant][version], and
// the tenant (problem) names they are served under.
type inputs struct {
	names []string
	docs  [][][]byte
}

func genInputs(w *workload, seed int64) *inputs {
	in := &inputs{names: make([]string, len(w.Tenants)), docs: make([][][]byte, len(w.Tenants))}
	for t := range w.Tenants {
		in.names[t] = fmt.Sprintf("tenant-%03d", t)
		cat := genCatalogue(subRand(seed, streamCatalogue, int64(t)), w.Tenants[t])
		in.docs[t] = make([][]byte, w.Versions)
		for v := range in.docs[t] {
			doc := genDocument(subRand(seed, streamDocument, int64(t), int64(v)), w.spec(t, v), cat)
			in.docs[t][v] = encodeDocument(doc)
		}
	}
	return in
}

// op is one request of a workload's stream: a decide of template Tmpl,
// or a PUT of the tenant's next document version (putOp).
type op struct {
	Tenant int32
	Tmpl   int32
}

const putOp = -1

// Independent streams drawn from the run seed. Each phase, and each
// round of the closed loop, has its own op stream, so a phase sends the
// same requests however many the phases before it managed.
const (
	streamCatalogue = iota + 1
	streamDocument
	streamWarmup
	streamClosed
	streamOpen
	streamArrivals
	streamReplay
)

// opStreamLen bounds a generated op stream; phases that send more
// cycle through it.
const opStreamLen = 1 << 16

// genOps draws the op stream of one phase (stream), or of one round of it.
func genOps(w *workload, seed, stream, round int64) []op {
	r := subRand(seed, stream, round)
	var zipf *rand.Zipf
	if w.Zipf > 0 {
		zipf = rand.NewZipf(r, w.Zipf, 1, uint64(len(w.Tenants)-1))
	}
	ops := make([]op, opStreamLen)
	for i := range ops {
		t := 0
		if zipf != nil {
			t = int(zipf.Uint64())
		} else {
			t = r.Intn(len(w.Tenants))
		}
		o := op{Tenant: int32(t), Tmpl: putOp}
		if r.Float64() >= w.PutFrac {
			o.Tmpl = int32(r.Intn(len(w.Templates)))
		}
		ops[i] = o
	}
	return ops
}

// arrivals returns the due times of a Poisson process of the given
// rate over d, drawn from the run seed.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	r := subRand(seed, streamArrivals)
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

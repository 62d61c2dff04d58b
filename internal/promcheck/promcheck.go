// Package promcheck validates metrics expositions: a small in-repo
// checker of the Prometheus text exposition format (0.0.4) and of
// OpenMetrics 1.0, enough grammar to catch a malformed /metrics
// document in CI without importing a client library. It is a test
// oracle: cmd/promlint and the tests of the packages that expose
// metrics call it, and no server path does.
//
// The checks cover line syntax (HELP/TYPE comments, sample lines with
// optional labels and timestamps), metric and label name grammar,
// duplicate label detection, float parsability, family grouping (one
// TYPE per family, declared before its samples, samples not
// interleaved across families), and the histogram invariants
// (cumulative non-decreasing buckets, a +Inf bucket, _count equal to
// the +Inf bucket) — tracked per label-set, since a labelled histogram
// family exposes one independent bucket sequence per label
// combination.
//
// ValidateOpenMetricsText runs the same validator in OpenMetrics 1.0
// mode, which additionally requires the `# EOF` terminator (and
// nothing after it), requires counter samples to carry the _total (or
// _created) suffix on a bare-named family, accepts float timestamps,
// and accepts-and-checks `# {labels} value [ts]` exemplars — only on
// histogram _bucket and counter _total samples, with a valid label
// set within the 128-rune budget.
package promcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ValidatePrometheusText checks data against the Prometheus text
// exposition grammar and the histogram consistency rules. It returns
// nil when the document would be accepted by a Prometheus scraper.
func ValidatePrometheusText(data []byte) error {
	return validateExposition(data, false)
}

// ValidateOpenMetricsText checks data against the OpenMetrics 1.0 text
// exposition grammar: the shared Prometheus rules plus the OpenMetrics
// deltas documented on the package comment above (EOF terminator,
// counter sample suffixes, exemplar syntax).
func ValidateOpenMetricsText(data []byte) error {
	return validateExposition(data, true)
}

func validateExposition(data []byte, om bool) error {
	v := &promValidator{
		om:       om,
		types:    map[string]string{},
		finished: map[string]bool{},
		hists:    map[string]*histCheck{},
	}
	for i, line := range strings.Split(string(data), "\n") {
		if err := v.line(line); err != nil {
			return fmt.Errorf("line %d: %w (%q)", i+1, err, line)
		}
	}
	return v.finish()
}

// histCheck accumulates one histogram family's samples for the final
// consistency check, keyed by label-set (the labels minus le): each
// label combination of a labelled histogram is its own bucket
// sequence with its own +Inf and _count.
type histCheck struct {
	sets map[string]*histSetCheck
}

func (hc *histCheck) set(key string) *histSetCheck {
	if hc.sets == nil {
		hc.sets = map[string]*histSetCheck{}
	}
	s := hc.sets[key]
	if s == nil {
		s = &histSetCheck{}
		hc.sets[key] = s
	}
	return s
}

type histSetCheck struct {
	prev     float64 // last cumulative bucket value
	prevLE   float64 // last bucket bound
	hasInf   bool
	infCount float64
	count    float64
	hasCount bool
	buckets  int
}

type promValidator struct {
	om       bool              // OpenMetrics mode
	sawEOF   bool              // the # EOF terminator has been seen
	types    map[string]string // family → declared TYPE
	finished map[string]bool   // families whose sample block has ended
	current  string            // family currently emitting samples
	hists    map[string]*histCheck
}

func (v *promValidator) line(line string) error {
	if strings.TrimSpace(line) == "" {
		return nil
	}
	if v.om && v.sawEOF {
		return fmt.Errorf("content after # EOF")
	}
	if v.om && strings.TrimSpace(line) == "# EOF" {
		v.sawEOF = true
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return v.comment(line)
	}
	return v.sample(line)
}

func (v *promValidator) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("HELP needs a valid metric name")
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE needs a metric name and a type")
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := v.types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if v.finished[name] || v.current == name {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		v.types[name] = typ
		if typ == "histogram" {
			v.hists[name] = &histCheck{}
		}
	}
	return nil
}

func (v *promValidator) sample(line string) error {
	name, labels, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	rest = strings.TrimSpace(rest)
	exemplar := ""
	hasExemplar := false
	if v.om {
		// An OpenMetrics sample may trail ` # {labels} value [ts]`.
		// The value/timestamp part cannot contain '#', so the first
		// " # " begins the exemplar.
		if i := strings.Index(rest, " # "); i >= 0 {
			exemplar, hasExemplar = strings.TrimSpace(rest[i+3:]), true
			rest = strings.TrimSpace(rest[:i])
		}
	}
	valStr, _, hasTS := strings.Cut(rest, " ")
	val, err := parsePromFloat(valStr)
	if err != nil {
		return fmt.Errorf("bad sample value %q", valStr)
	}
	if hasTS {
		ts := strings.TrimSpace(rest[len(valStr):])
		if v.om {
			// OpenMetrics timestamps are seconds, possibly fractional.
			if _, err := strconv.ParseFloat(ts, 64); err != nil {
				return fmt.Errorf("bad timestamp %q", ts)
			}
		} else if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", ts)
		}
	}

	fam := v.familyOf(name)
	if v.om {
		if t := v.types[fam]; t == "counter" && name != fam+"_total" && name != fam+"_created" {
			return fmt.Errorf("counter %s sample %s lacks the _total suffix", fam, name)
		}
	}
	if hasExemplar {
		if err := v.checkExemplar(fam, name, exemplar); err != nil {
			return err
		}
	}
	if v.finished[fam] {
		return fmt.Errorf("samples of family %s are not contiguous", fam)
	}
	if v.current != fam {
		if v.current != "" {
			v.finished[v.current] = true
		}
		v.current = fam
	}
	if hc := v.hists[fam]; hc != nil {
		return v.histSample(fam, hc, name, labels, val)
	}
	return nil
}

// checkExemplar validates one ` # {labels} value [ts]` exemplar
// suffix: allowed only on histogram _bucket and counter _total
// samples, with a well-formed label set within OpenMetrics' 128-rune
// budget and a parseable value (and optional float timestamp).
func (v *promValidator) checkExemplar(fam, name, ex string) error {
	typ := v.types[fam]
	allowed := (typ == "histogram" && name == fam+"_bucket") ||
		(typ == "counter" && name == fam+"_total")
	if !allowed {
		return fmt.Errorf("exemplar on %s (only histogram buckets and counter totals may carry one)", name)
	}
	if ex == "" || ex[0] != '{' {
		return fmt.Errorf("exemplar must start with a label set")
	}
	labels, n, err := scanLabels(ex)
	if err != nil {
		return fmt.Errorf("exemplar labels: %w", err)
	}
	var runes int
	for k, val := range labels {
		runes += len([]rune(k)) + len([]rune(val))
	}
	if runes > 128 {
		return fmt.Errorf("exemplar label set exceeds 128 runes")
	}
	fields := strings.Fields(ex[n:])
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("exemplar needs a value and at most a timestamp")
	}
	if _, err := parsePromFloat(fields[0]); err != nil {
		return fmt.Errorf("bad exemplar value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("bad exemplar timestamp %q", fields[1])
		}
	}
	return nil
}

func (v *promValidator) histSample(fam string, hc *histCheck, name string, labels map[string]string, val float64) error {
	switch name {
	case fam + "_bucket":
		le, ok := labels["le"]
		if !ok {
			return fmt.Errorf("histogram bucket without le label")
		}
		bound, err := parsePromFloat(le)
		if err != nil {
			return fmt.Errorf("bad le bound %q", le)
		}
		sc := hc.set(labelSetKey(labels, "le"))
		if sc.buckets > 0 && bound <= sc.prevLE {
			return fmt.Errorf("bucket bounds not increasing (%q after %v)", le, sc.prevLE)
		}
		if val < sc.prev {
			return fmt.Errorf("bucket counts not cumulative (%v after %v)", val, sc.prev)
		}
		if le == "+Inf" {
			sc.hasInf = true
			sc.infCount = val
		}
		sc.prev, sc.prevLE = val, bound
		sc.buckets++
	case fam + "_sum":
		// Any float is fine.
	case fam + "_count":
		sc := hc.set(labelSetKey(labels, "le"))
		sc.count, sc.hasCount = val, true
	case fam:
		return fmt.Errorf("histogram family %s exposes a bare sample", fam)
	}
	return nil
}

func (v *promValidator) finish() error {
	if v.om && !v.sawEOF {
		return fmt.Errorf("openmetrics document missing the # EOF terminator")
	}
	for fam, hc := range v.hists {
		for key, sc := range hc.sets {
			if sc.buckets == 0 && !sc.hasCount {
				continue // declared but never sampled
			}
			at := ""
			if key != "" {
				at = fmt.Sprintf(" {%s}", key)
			}
			if !sc.hasInf {
				return fmt.Errorf("histogram %s%s has no +Inf bucket", fam, at)
			}
			if sc.hasCount && sc.count != sc.infCount {
				return fmt.Errorf("histogram %s%s: count %v != +Inf bucket %v", fam, at, sc.count, sc.infCount)
			}
		}
	}
	return nil
}

// labelSetKey canonicalises a sample's labels (minus the excluded
// name, the histogram le bound) into a deterministic key.
func labelSetKey(labels map[string]string, exclude string) string {
	if len(labels) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(labels))
	for k, val := range labels {
		if k == exclude {
			continue
		}
		pairs = append(pairs, k+"="+val)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// familyOf maps a sample name to its metric family: histogram and
// summary component suffixes fold into the declared family name, and
// in OpenMetrics mode the counter sample suffixes fold too (the
// family is declared bare, the samples carry _total).
func (v *promValidator) familyOf(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if t := v.types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	if v.om {
		for _, suffix := range []string{"_total", "_created"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && v.types[base] == "counter" {
				return base
			}
		}
	}
	return name
}

// splitSample parses `name{labels} value [ts]` into its parts; labels
// is nil when absent.
func splitSample(line string) (name string, labels map[string]string, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("sample has no value")
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] == ' ' {
		return name, nil, line[i+1:], nil
	}
	labels, n, err := scanLabels(line[i:])
	if err != nil {
		return "", nil, "", err
	}
	pos := i + n
	if pos >= len(line) || line[pos] != ' ' {
		return "", nil, "", fmt.Errorf("missing value after labels")
	}
	return name, labels, line[pos+1:], nil
}

// scanLabels parses a {name="value",...} label set starting at
// s[0] == '{'; n is the number of bytes consumed including braces.
// Shared by sample parsing and exemplar validation.
func scanLabels(s string) (labels map[string]string, n int, err error) {
	labels = map[string]string{}
	pos := 1
	for {
		for pos < len(s) && (s[pos] == ' ' || s[pos] == ',') {
			pos++
		}
		if pos >= len(s) {
			return nil, 0, fmt.Errorf("unterminated label set")
		}
		if s[pos] == '}' {
			pos++
			break
		}
		eq := strings.Index(s[pos:], "=")
		if eq < 0 {
			return nil, 0, fmt.Errorf("label without =")
		}
		lname := strings.TrimSpace(s[pos : pos+eq])
		if !validLabelName(lname) {
			return nil, 0, fmt.Errorf("invalid label name %q", lname)
		}
		pos += eq + 1
		if pos >= len(s) || s[pos] != '"' {
			return nil, 0, fmt.Errorf("label value not quoted")
		}
		val, m, err := scanQuoted(s[pos:])
		if err != nil {
			return nil, 0, err
		}
		if _, dup := labels[lname]; dup {
			return nil, 0, fmt.Errorf("duplicate label %q", lname)
		}
		labels[lname] = val
		pos += m
	}
	return labels, pos, nil
}

// scanQuoted reads a double-quoted, backslash-escaped string starting
// at s[0] == '"'; n is the number of bytes consumed including quotes.
func scanQuoted(s string) (val string, n int, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c", s[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// parsePromFloat accepts the exposition format's float syntax,
// including the +Inf/-Inf/NaN spellings.
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return float64(1 << 62), nil // only compared for order; magnitude is moot
	case "-Inf":
		return -float64(1 << 62), nil
	case "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

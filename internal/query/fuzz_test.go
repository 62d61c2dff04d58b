package query

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mustParseLiteral matches the query text of a MustParseQuery call
// with one interpreted or raw string literal.
var mustParseLiteral = regexp.MustCompile("MustParseQuery\\((\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\)")

// querySeeds returns the query texts of the repository's tests (every
// MustParseQuery literal) and of examples/orders_rcdp.json (its query
// and each CC's left and right side).
func querySeeds(f *testing.F) []string {
	root := filepath.Join("..", "..")
	var seeds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mustParseLiteral.FindAllStringSubmatch(string(src), -1) {
			if s, err := strconv.Unquote(m[1]); err == nil {
				seeds = append(seeds, s)
			}
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "examples", "orders_rcdp.json"))
	if err != nil {
		f.Fatal(err)
	}
	var doc struct {
		CCs   []struct{ Left, Right string }
		Query struct{ Calc string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, doc.Query.Calc)
	for _, c := range doc.CCs {
		seeds = append(seeds, c.Left, c.Right)
	}
	return seeds
}

// FuzzParseQuery: query text arrives from outside the program (a
// decide's query override, probjson's query.calc and every CC side),
// so the parser must not panic on any input, and the text an accepted
// query renders must parse back to a query that renders the same.
func FuzzParseQuery(f *testing.F) {
	for _, s := range querySeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		text := q.String()
		again, err := ParseQuery(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q renders as %q, which re-renders as %q", src, text, got)
		}
	})
}

package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestRCheckExplainGolden pins the full -explain output of rcdp and minp
// in every model on examples/orders_rcdp.json, at one and at two
// workers: the verdict lines and the counterexample text.
func TestRCheckExplainGolden(t *testing.T) {
	doc := filepath.Join("..", "..", "examples", "orders_rcdp.json")
	for _, workers := range []string{"1", "2"} {
		var b strings.Builder
		for _, problem := range []string{"rcdp", "minp"} {
			for _, model := range []string{"strong", "weak", "viable"} {
				args := []string{"-problem", problem, "-model", model, "-explain"}
				out, err := runCheck(t, append(args, "-workers", workers, doc)...)
				if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				fmt.Fprintf(&b, "$ rcheck %s\n%s", strings.Join(args, " "), out)
			}
		}
		t.Run("workers="+workers, func(t *testing.T) {
			path := filepath.Join("testdata", "explain.golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if b.String() != string(want) {
				t.Errorf("-explain output differs from the golden file\ngot:\n%s\nwant:\n%s", b.String(), want)
			}
		})
	}
}

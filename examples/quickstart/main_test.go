package main

import (
	"flag"
	"testing"

	"relcomplete/examples/internal/exampletest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestOutputGolden pins what the example prints.
func TestOutputGolden(t *testing.T) { exampletest.Golden(t, *update, main) }

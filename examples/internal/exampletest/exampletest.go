// Package exampletest checks what an example program prints against
// the golden file beside it.
package exampletest

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Golden runs main with os.Stdout captured and compares what it prints
// with testdata/output.txt, or rewrites that file when update is set.
func Golden(t *testing.T, update bool, main func()) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	func() {
		defer func() {
			os.Stdout = stdout
			w.Close()
		}()
		main()
	}()
	got := <-printed
	r.Close()

	path := filepath.Join("testdata", "output.txt")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

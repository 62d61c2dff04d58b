package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecover writes arbitrary bytes as wal.log and opens the data
// directory. Recovery must not panic, and either recovers records or
// fails with an error that wraps ErrIO. A recovered log must accept a
// put, and reopening it must return the recovered records followed by
// that put. Seeds: a valid two-record log, the same log with a torn
// tail, with a flipped byte in its first frame's CRC, and with a wrong
// version byte.
func FuzzWALRecover(f *testing.F) {
	dir := f.TempDir()
	l, _, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.AppendPut("a", doc(1)); err != nil {
		f.Fatal(err)
	}
	if err := l.AppendDelete("a"); err != nil {
		f.Fatal(err)
	}
	l.Close()
	valid, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	badCRC := bytes.Clone(valid)
	badCRC[len(walMagic)+4] ^= 0xff
	f.Add(badCRC)
	badVersion := bytes.Clone(valid)
	badVersion[5]++
	f.Add(badVersion)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir, Options{NoFsync: true})
		if err != nil {
			if !errors.Is(err, ErrIO) {
				t.Fatalf("Open: %v does not wrap ErrIO", err)
			}
			return
		}
		put := Record{Op: OpPut, Name: "fuzz", Raw: doc(7)}
		if err := l.AppendPut(put.Name, put.Raw); err != nil {
			t.Fatalf("AppendPut after recovering %d records: %v", len(recs), err)
		}
		l.Close()
		l, again, err := Open(dir, Options{NoFsync: true})
		if err != nil {
			t.Fatalf("reopen after AppendPut: %v", err)
		}
		defer l.Close()
		wantRecords(t, again, append(recs, put)...)
	})
}

package cliutil

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenOutputStdout(t *testing.T) {
	o, err := OpenOutput("")
	if err != nil {
		t.Fatal(err)
	}
	if o.f != nil {
		t.Error("stdout Output holds a file")
	}
	if err := o.Close(); err != nil {
		t.Errorf("closing stdout output: %v", err)
	}
}

func TestOutputRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	o, err := OpenOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(o, "hello %d\n", 42)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello 42\n" {
		t.Fatalf("content %q", b)
	}
}

func TestOpenOutputBadPath(t *testing.T) {
	if _, err := OpenOutput(filepath.Join(t.TempDir(), "missing", "x.json")); err == nil {
		t.Fatal("creating a file in a missing directory succeeded")
	}
}

// failAfter errors every write past the first n bytes — a stand-in for
// a disk filling up mid-render.
type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestOutputRecordsFirstWriteError(t *testing.T) {
	o := &Output{name: "target", w: &failAfter{n: 4}}
	fmt.Fprint(o, "1234") // fits
	fmt.Fprint(o, "5678") // fails
	fmt.Fprint(o, "late") // suppressed, still failing
	err := o.Close()
	if err == nil {
		t.Fatal("Close dropped the write error")
	}
	if !strings.Contains(err.Error(), "target") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("error %q lacks destination or cause", err)
	}
}

func TestOutputDevFull(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	o, err := OpenOutput("/dev/full")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(o, strings.Repeat("x", 1<<16))
	if err := o.Close(); err == nil {
		t.Fatal("writing /dev/full reported success")
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "{}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "{}\n" {
		t.Fatalf("content %q", b)
	}

	if err := WriteFile(filepath.Join(t.TempDir(), "no", "dir.json"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("WriteFile to missing directory succeeded")
	}

	if err := WriteFile(path, func(io.Writer) error { return errors.New("boom") }); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("writer error not surfaced: %v", err)
	}
}

func TestCheckFormat(t *testing.T) {
	for _, f := range []string{"text", "json", "csv"} {
		if err := CheckFormat(f); err != nil {
			t.Errorf("CheckFormat(%q) = %v", f, err)
		}
	}
	for _, f := range []string{"", "xml", "JSON"} {
		err := CheckFormat(f)
		if err == nil {
			t.Errorf("CheckFormat(%q) accepted", f)
			continue
		}
		if want := fmt.Sprintf("unknown format %q (want text, json, or csv)", f); err.Error() != want {
			t.Errorf("CheckFormat(%q) = %q, want %q", f, err, want)
		}
	}
}

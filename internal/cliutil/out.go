// Package cliutil holds the small output plumbing the CLIs share. Its
// job is making write failures loud: table renderers and chart drawers
// write through fmt without checking errors, so a full disk or an
// unwritable -out target must still turn into a non-zero exit — Output
// records the first write error and re-surfaces it at Close.
package cliutil

import (
	"fmt"
	"io"
	"os"
)

// Output is a CLI output destination: stdout when path is empty,
// otherwise a created file. It implements io.Writer; after the first
// write error every later write is a cheap no-op returning the same
// error, and Close reports it (or the file close error) annotated with
// the destination name.
type Output struct {
	name string
	w    io.Writer
	f    *os.File // nil for stdout
	err  error
}

// OpenOutput returns an Output on the file at path, or on stdout when
// path is empty.
func OpenOutput(path string) (*Output, error) {
	if path == "" {
		return &Output{name: "stdout", w: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Output{name: path, w: f, f: f}, nil
}

// Write implements io.Writer, recording the first failure.
func (o *Output) Write(p []byte) (int, error) {
	if o.err != nil {
		return 0, o.err
	}
	n, err := o.w.Write(p)
	if err != nil {
		o.err = err
	}
	return n, err
}

// Close flushes and closes the destination, returning the first write
// error seen (or the close error). Closing stdout is a no-op beyond the
// error check. Close is idempotent.
func (o *Output) Close() error {
	werr := o.err
	if o.f != nil {
		cerr := o.f.Close()
		o.f = nil
		if werr == nil {
			werr = cerr
		}
	}
	o.err = nil
	if werr != nil {
		return fmt.Errorf("writing %s: %w", o.name, werr)
	}
	return nil
}

// CheckFormat validates a -format flag value: text, json, or csv.
func CheckFormat(format string) error {
	switch format {
	case "text", "json", "csv":
		return nil
	}
	return fmt.Errorf("unknown format %q (want text, json, or csv)", format)
}

// WriteFile creates path, streams write into it, and closes it,
// reporting creation, write, and close errors alike — the one-shot
// variant of Output for export files written mid-command.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	o := &Output{name: path, w: f, f: f}
	if err := write(o); err != nil {
		o.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return o.Close()
}

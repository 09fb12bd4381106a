package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tracer keeps spans around the benchmark's own calls into the program,
// in memory, for the traced run. A nil tracer records nothing, which is
// how the untraced run that produces the end-to-end numbers uses it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one call into a module: its name, when it ran relative to the
// tracer's start, and the span that caused it (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it. On a nil tracer
// both do nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// log returns a copy of every span recorded.
func (t *tracer) log() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanTotal is the per-name summary of closed spans: count, summed
// duration, and self time (duration minus the union of child spans).
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MS     float64 `json:"ms"`
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	byName := map[string]*spanTotal{}
	var order []string
	for id, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.MS += ms(d)
		st.SelfMS += ms(d - union(children[id], s.Start, s.End))
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// union returns how much of [lo, hi] the intervals cover.
func union(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, cur time.Duration = 0, lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tail returns the highest percentile that has at least ten samples
// beyond it, with its label; with fewer than eleven samples it returns the
// maximum, labelled "max".
func tail(xs []float64) (string, float64) {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return fmt.Sprintf("p%g", p), quantile(xs, p/100)
		}
	}
	return "max", quantile(xs, 1)
}

// host is the machine and build block printed with every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Source identifies the code measured when no commit is known (a
	// checkout without git history): a SHA-256 over every go.mod and .go
	// file under the working directory, in path order.
	Source string `json:"source_sha256"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

// sourceDigest hashes the Go sources under the working directory,
// skipping hidden directories such as .bench_build and .git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hostInfo() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeCounters samples the Go runtime's allocation and GC CPU
// counters; deltas between two samples charge a traced iteration.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU      float64
	busyCPU    float64 // all CPU time except idle
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	c.gcCPU = val(1)
	c.busyCPU = val(2) - val(3)
	return c
}

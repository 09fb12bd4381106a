// Package promtext writes service counters in the Prometheus text
// exposition format: unlabeled gauges and counters, each preceded by
// its # HELP and # TYPE lines, so both curl and standard scrapers can
// read them. mosaicd and the coordinator serve /metrics through it.
package promtext

import (
	"fmt"
	"net/http"
)

// Metric is one unlabeled sample: its name, help text, type ("gauge"
// or "counter") and formatted value.
type Metric struct {
	Name, Help, Type, Value string
}

// Serve writes ms, in order, as a text/plain exposition response.
func Serve(w http.ResponseWriter, ms []Metric) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", m.Name, m.Help, m.Name, m.Type, m.Name, m.Value)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Sink consumes metric snapshots. Emitters must not retain the snapshot.
type Sink interface {
	Emit(*Snapshot) error
}

// JSONSink writes snapshots as indented JSON, one document per Emit.
type JSONSink struct{ W io.Writer }

// Emit implements Sink.
func (s JSONSink) Emit(snap *Snapshot) error {
	enc := json.NewEncoder(s.W)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// TextSink writes snapshots as a compact human-readable report: counters
// and gauges in lexical order, and the span tree indented by depth.
type TextSink struct{ W io.Writer }

// Emit implements Sink.
func (s TextSink) Emit(snap *Snapshot) error {
	var b strings.Builder
	fmt.Fprintf(&b, "uptime: %.3fs\n", snap.UptimeSeconds)
	if len(snap.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(snap.Counters) {
			fmt.Fprintf(&b, "  %-40s %d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(&b, "  %-40s %.4f\n", k, snap.Gauges[k])
		}
	}
	if len(snap.Spans) > 0 {
		b.WriteString("spans:\n")
		writeSpanTree(&b, snap.Spans, 1)
	}
	_, err := io.WriteString(s.W, b.String())
	return err
}

func writeSpanTree(b *strings.Builder, spans []SpanStats, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, sp := range spans {
		fmt.Fprintf(b, "%s%-*s n=%d total=%.4fs\n",
			indent, 42-2*depth, sp.Name, sp.Count, sp.TotalSeconds)
		writeSpanTree(b, sp.Children, depth+1)
	}
}

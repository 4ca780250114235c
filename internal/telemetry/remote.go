// Cross-process observability: remote spans grafted from data nodes and
// federated metrics snapshots merged by the proxy.
//
// Every wire connection carries a compact trace context on each
// statement; the data node times its own
// work (queue, parse, read/write, lock wait, commit) relative to the
// moment it received the frame and piggybacks those spans on the reply.
// GraftRemote maps them into the proxy-side trace clock: the client
// knows when it sent the request and how long the round trip took, the
// node reports how long it actually worked, and the difference is wire
// plus queue time. Lacking synchronized clocks, the gap is split evenly
// between the two directions (Dapper's symmetric-network assumption),
// which bounds the placement error of every remote span by gap/2.
package telemetry

import (
	"context"
	"sort"
	"time"
)

// RemoteSpan is one datanode-side timed interval, offset-relative to the
// node's receipt of the statement frame. Stage uses compact wire names
// ("parse", "read", "commit", ...) mapped to Stage values at graft time.
type RemoteSpan struct {
	Stage  string
	Offset time.Duration
	Dur    time.Duration
	Err    string
}

// GraftRemote merges a remote statement's piggybacked spans into this
// trace under the given data source. start/elapsed are the client-side
// send time and round-trip wall time; serverTotal is the node-reported
// receive→reply processing time. Safe to call from executor goroutines.
func (t *Trace) GraftRemote(source string, start time.Time, elapsed, serverTotal time.Duration, spans []RemoteSpan) {
	if t == nil {
		return
	}
	base := start.Sub(t.col.base) - t.startOff
	gap := elapsed - serverTotal
	if gap < 0 {
		// Clock granularity or a node overstating its work; there is no
		// meaningful wire time to report.
		gap = 0
	}
	skew := gap / 2
	t.advanceEnd(base + elapsed)
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Stage:      StageWire,
		DataSource: source,
		Offset:     base,
		Dur:        gap,
	})
	for _, rs := range spans {
		st, ok := remoteStageByName[rs.Stage]
		if !ok {
			st = StageNodeOther
		}
		t.spans = append(t.spans, Span{
			Stage:      st,
			DataSource: source,
			Offset:     base + skew + rs.Offset,
			Dur:        rs.Dur,
			Err:        rs.Err,
		})
	}
	t.mu.Unlock()
	t.col.observeStage(StageWire, gap)
	for _, rs := range spans {
		st, ok := remoteStageByName[rs.Stage]
		if !ok {
			st = StageNodeOther
		}
		t.col.observeStage(st, rs.Dur)
	}
	s := t.col.Source(source)
	s.Wire.Observe(gap)
	s.Remote.Observe(serverTotal)
}

// --- trace context propagation ---

type traceCtxKey struct{}

// WithTrace returns a context carrying the statement's trace, read back
// by remote-source clients to decide whether to propagate trace context
// on the wire. Callers only pay the context allocation on sampled
// statements.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the trace attached by WithTrace, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// --- federated metrics snapshots ---

// NamedHistogram is one latency histogram in a metrics snapshot; buckets
// use the package's power-of-two layout (bucket i covers [2^(i-1), 2^i)
// microseconds).
type NamedHistogram struct {
	Name    string
	Buckets []uint64
}

// Count sums the bucket counters.
func (h NamedHistogram) Count() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Quantile estimates a quantile of the bucketed counts with the same
// conservative upper-bound rule as Histogram.Quantile.
func (h NamedHistogram) Quantile(q float64) time.Duration {
	return quantileOf(h.Buckets, q)
}

// NamedCounter is one monotonic counter (or gauge) in a snapshot.
type NamedCounter struct {
	Name  string
	Value int64
}

// MetricsSnapshot is one node's metrics state at a point in time: what
// FrameMetricsPull returns and what the governor merges into the
// cluster view.
type MetricsSnapshot struct {
	Histograms []NamedHistogram
	Counters   []NamedCounter
}

// MergeSnapshots combines per-node snapshots bucket-wise: histograms
// with the same name add their buckets (so the merged count is exactly
// the sum of the node counts), counters with the same name sum. Output
// is sorted by name for deterministic rendering.
func MergeSnapshots(snaps []*MetricsSnapshot) *MetricsSnapshot {
	hists := map[string][]uint64{}
	counters := map[string]int64{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, h := range s.Histograms {
			dst := hists[h.Name]
			if len(h.Buckets) > len(dst) {
				grown := make([]uint64, len(h.Buckets))
				copy(grown, dst)
				dst = grown
			}
			for i, c := range h.Buckets {
				dst[i] += c
			}
			hists[h.Name] = dst
		}
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
	}
	out := &MetricsSnapshot{}
	for name, buckets := range hists {
		out.Histograms = append(out.Histograms, NamedHistogram{Name: name, Buckets: buckets})
	}
	for name, v := range counters {
		out.Counters = append(out.Counters, NamedCounter{Name: name, Value: v})
	}
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	return out
}

// MetricsSnapshot captures the collector's histograms and counters in
// the federated-snapshot shape. Stage histograms are exported as
// "stage.<name>", per-source execute histograms as "source.<name>".
func (c *Collector) MetricsSnapshot() *MetricsSnapshot {
	if c == nil {
		return &MetricsSnapshot{}
	}
	out := &MetricsSnapshot{
		Counters: []NamedCounter{
			{Name: "statements", Value: int64(c.stage[StageTotal].Count())},
			{Name: "errors", Value: int64(c.errors.Load())},
			{Name: "slow.count", Value: int64(c.slow.total())},
		},
	}
	for s := Stage(0); s < numStages; s++ {
		h := &c.stage[s]
		if h.Count() == 0 {
			continue
		}
		snap := h.Snapshot()
		out.Histograms = append(out.Histograms, NamedHistogram{
			Name:    "stage." + s.String(),
			Buckets: append([]uint64(nil), snap[:]...),
		})
	}
	c.sources.Range(func(k, v any) bool {
		s := v.(*SourceStats)
		if s.Execute.Count() == 0 {
			return true
		}
		snap := s.Execute.Snapshot()
		out.Histograms = append(out.Histograms, NamedHistogram{
			Name:    "source." + k.(string),
			Buckets: append([]uint64(nil), snap[:]...),
		})
		return true
	})
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	c.extraMu.Lock()
	extras := c.snapshotExtras
	c.extraMu.Unlock()
	for _, fn := range extras {
		fn(out)
	}
	return out
}

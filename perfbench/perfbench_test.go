package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"shardingsphere/internal/sqltypes"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig is a small, fast run of one workload.
func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return config{workload: w, seed: 7, seconds: 0.6, trace: trace, rows: 2000,
		clients: 2, setups: 1, warmLimit: 100 * time.Millisecond}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	spec := loadSpec(t)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: the
// answer checks pass, and each run emits exactly the metrics
// BENCHMARK.json declares for its mode, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, _, err := run(tinyConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d",
					w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// corruptConn flips one value in every query result and miscounts every
// DML's affected rows.
type corruptConn struct{ conn }

func (c corruptConn) query(sql string, args []sqltypes.Value) ([]sqltypes.Row, error) {
	rows, err := c.conn.query(sql, args)
	if err == nil && len(rows) > 0 {
		last := rows[len(rows)-1]
		last[len(last)-1] = sqltypes.NewString("corrupted")
	}
	return rows, err
}

func (c corruptConn) exec(sql string, args []sqltypes.Value) (int64, error) {
	n, err := c.conn.exec(sql, args)
	return n + 1, err
}

// TestCorruptedResultFails checks that a wrong answer counts as a failed
// op on every workload.
func TestCorruptedResultFails(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w.name, false)
		gen := rowGen{seed: uint64(cfg.seed), rows: cfg.rows}
		cl, err := newCluster(gen)
		if err != nil {
			t.Fatal(err)
		}
		d := &runner{cfg: cfg, cl: cl, gen: gen}
		if err := d.open(); err != nil {
			t.Fatal(err)
		}
		for i := range d.conns {
			d.conns[i] = corruptConn{d.conns[i]}
		}
		ph := d.measure(0.2, 1, nil)
		d.closeConns()
		cl.close()
		if ph.attempted == 0 || ph.ok != 0 || ph.failedLat != ph.attempted || ph.firstErr == nil {
			t.Errorf("%s: attempted=%d ok=%d failed=%d: corrupted results must all fail",
				w.name, ph.attempted, ph.ok, ph.failedLat)
		}
		if lat := ph.latencies(); len(lat) == 0 || quantile(lat, 0.5) != math.MaxFloat64 {
			t.Errorf("%s: failed ops must count as missing every latency limit", w.name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: covered once
		{ID: 4, Parent: 1, Start: 90, End: 150}, // runs past its parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 60, 5: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

// Command perfbench is the repository benchmark: sysbench-shaped
// workloads against a full deployment built in this process — five
// wire-v2 datanodes on loopback TCP, the sharding kernel, and the proxy in
// front of it — driven by closed-loop clients that each wait for their
// reply.
//
//	go run . --workload point_select --seed 1 --seconds 12 --trace 0
//
// Every run builds and loads a fresh cluster from its seed (several
// times; setup_s is the median), warms it up, then measures. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it reports
// the per-layer ledger (see ledger.go). The last stdout line is the JSON
// result; the line before it records the run's environment.
//
// tps and setup_s are taken on the process's CPU clock, not the wall
// clock. On a shared virtual machine the hypervisor takes a varying share
// of the cores (steal), which slows every wall-clock figure alike but is
// left out of the CPU clock. tps is ops per second of the CPU time the
// process got, times GOMAXPROCS: a closed loop keeps the cores 80-95%
// busy, so it reads that much above wall-clock ops/s, and time spent
// waiting rather than computing does not lower it. Wall-clock op
// latencies (op.p50_ms, op.p99_ms) are per-layer metrics of the traced
// run; wall-clock throughput, latencies and set-up times are recorded
// with every result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"shardingsphere/internal/sqltypes"
)

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	rows     int
	clients  int
	setups   int
	// warmLimit caps warm-up, plan-cache filling included.
	warmLimit time.Duration
	// spanFile receives the traced run's spans (empty: not written).
	spanFile string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 12, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer ledger from a traced run")
		spans   = flag.String("span-file", "", "write the traced run's spans here (JSON lines)")
		gitSHA  = flag.String("git-sha", "unknown", "commit under test, recorded with the result")
	)
	flag.Parse()
	// A run must end well inside three minutes; a hang is a failed run.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// 50,000 sysbench rows (~10 MB of user data) and two closed-loop
	// clients, one per core of the 2-vCPU machine the benchmark was sized
	// on.
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rows: 50000, clients: 2, setups: 3,
		warmLimit: 60 * time.Second,
		spanFile:  *spans,
	}
	res, info, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info["git_sha"] = *gitSHA
	meta, err := json.Marshal(map[string]any{"run": info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(meta))
	fmt.Println(string(out))
}

// run builds the cluster, warms it up and measures one workload.
func run(cfg config) (*result, map[string]any, error) {
	gen := rowGen{seed: uint64(cfg.seed), rows: cfg.rows}
	var setupCPU, setupWall []float64
	var cl *cluster
	for i := 0; i < cfg.setups; i++ {
		if cl != nil {
			cl.close()
			runtime.GC()
		}
		t0, c0 := time.Now(), cpuNow()
		var err error
		if cl, err = newCluster(gen); err != nil {
			return nil, nil, err
		}
		setupCPU = append(setupCPU, (cpuNow() - c0).Seconds())
		setupWall = append(setupWall, since(t0))
	}
	defer cl.close()

	d := &runner{cfg: cfg, cl: cl, gen: gen}
	if err := d.open(); err != nil {
		return nil, nil, err
	}
	defer d.closeConns()
	warm := d.warmUp()
	// Start every timed phase at the same point of the GC cycle. The live
	// heap here is the footprint of the data and of caches warmed by a
	// fixed number of ops.
	runtime.GC()
	heapMB := liveHeap() / (1 << 20)

	info := map[string]any{
		"workload": cfg.workload.name, "seed": cfg.seed, "rows": cfg.rows,
		"seconds": cfg.seconds, "clients": cfg.clients, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "setup_cpu_s": setupCPU, "setup_wall_s": setupWall,
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var ph *phase
	if !cfg.trace {
		c0 := cpuNow()
		ph = d.measure(cfg.seconds, 1, nil)
		cpu := (cpuNow() - c0).Seconds()
		// Ops per second of the cores' time the process got.
		cores := float64(runtime.GOMAXPROCS(0))
		res.Metrics["tps"] = metric{float64(ph.ok) / (cpu / cores), "1/s"}
		res.Metrics["ok_ratio"] = metric{float64(ph.ok) / float64(max(ph.attempted, 1)), "ratio"}
		res.Metrics["setup_s"] = metric{median(setupCPU), "s"}
		res.Metrics["heap_mb"] = metric{heapMB, "MB"}
		lat := ph.latencies()
		runtime.GC()
		info["end_heap_mb"] = liveHeap() / (1 << 20)
		info["ops"] = ph.attempted
		info["wall_tps"] = float64(ph.ok) / ph.elapsed
		info["cpu_share"] = cpu / (cores * ph.elapsed)
		info["window_tps"] = ph.windowRates()
		info["op_p50_ms"] = quantile(lat, 0.50)
		info["op_p99_ms"] = quantile(lat, 0.99)
		info["op_percentile_samples"] = len(lat)
	} else {
		var layers map[string]metric
		var err error
		ph, layers, err = d.traced()
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = layers
		info["ops"] = ph.attempted
		info["op_percentile_samples"] = len(ph.latencies())
	}
	res.Attempted, res.Failed = ph.attempted, ph.attempted-ph.ok
	for _, p := range []*phase{warm, ph} {
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "first failed op:", p.firstErr)
			res.Correct = false
		}
	}
	if err := cl.verifyIntact(); err != nil {
		fmt.Fprintln(os.Stderr, "post-run check:", err)
		res.Correct = false
	}
	if res.Failed > 0 || ph.attempted == 0 {
		res.Correct = false
	}
	return res, info, nil
}

// runner runs a workload's clients against one cluster.
type runner struct {
	cfg   config
	cl    *cluster
	gen   rowGen
	conns []conn
}

func (d *runner) open() error {
	for w := 0; w < d.cfg.clients; w++ {
		c, err := d.cl.dial(d.cfg.workload.viaProxy)
		if err != nil {
			return err
		}
		d.conns = append(d.conns, c)
	}
	return nil
}

func (d *runner) closeConns() {
	for _, c := range d.conns {
		c.close()
	}
}

// warmUp runs the workload untimed for its warm-up op count, and for
// plan-cache workloads until the cache holds its capacity. Its ops are
// checked like timed ones. A count of ops, not a time, leaves every run
// with the same caches however fast the host runs it.
func (d *runner) warmUp() *phase {
	limit := time.Now().Add(d.cfg.warmLimit)
	pc := d.cl.kernel.PlanCache()
	done := func(ops int64) bool {
		if time.Now().After(limit) {
			return true
		}
		if ops < d.cfg.workload.warmOps {
			return false
		}
		return !d.cfg.workload.fillPlanCache || pc.Len() >= pc.Stats().Capacity*97/100
	}
	return d.loop(0, done, nil)
}

// phase is what one measured interval produced.
type phase struct {
	attempted, ok int64
	elapsed       float64
	lat           [][]int64 // per client, successful ops, ns
	done          [][]int64 // per client, successful ops' end, ns since start
	failedLat     int64     // failed ops count as missing every latency limit
	firstErr      error
	stmts         int64 // statements issued
	tclStmts      int64
}

// windowRates returns the completed ops per second of each whole
// one-second window of the phase.
func (p *phase) windowRates() []float64 {
	n := int(p.elapsed)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, d := range p.done {
		for _, ns := range d {
			if i := int(ns / 1e9); i < n {
				counts[i]++
			}
		}
	}
	return counts
}

// latencies returns the ops' latencies in ms, sorted; a failed op reads
// as +Inf.
func (p *phase) latencies() []float64 {
	var all []float64
	for _, l := range p.lat {
		for _, ns := range l {
			all = append(all, float64(ns)/1e6)
		}
	}
	for i := int64(0); i < p.failedLat; i++ {
		all = append(all, math.Inf(1))
	}
	sort.Float64s(all)
	return all
}

// measure runs the clients for the given seconds. salt separates the
// input streams of successive phases of one run.
func (d *runner) measure(seconds float64, salt int64, tr *tracer) *phase {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return d.loop(salt, func(int64) bool { return !time.Now().Before(deadline) }, tr)
}

// loop runs every client in a closed loop until done, given the ops
// attempted so far, reports true.
func (d *runner) loop(salt int64, done func(ops int64) bool, tr *tracer) *phase {
	ph := &phase{lat: make([][]int64, len(d.conns)), done: make([][]int64, len(d.conns))}
	var attempted, ok, stmts, tcl atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := range d.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.cfg.seed*1_000_003 + salt*7919 + int64(w)))
			var pr *prober
			if tr != nil {
				var err error
				if pr, err = tr.newProber(d.cl, w, d.cfg.workload.viaProxy); err != nil {
					tr.fail(err)
					return
				}
				defer pr.close()
			}
			for !done(attempted.Load()) && (tr == nil || !tr.full()) {
				op := d.cfg.workload.gen(d.gen, rng)
				t0 := time.Now()
				res, times, err := runOp(d.conns[w], op)
				lat := time.Since(t0)
				if err == nil {
					err = checkOp(op, res)
				}
				attempted.Add(1)
				stmts.Add(int64(len(op)))
				for _, s := range op {
					if s.tcl {
						tcl.Add(1)
					}
				}
				if err != nil {
					mu.Lock()
					ph.failedLat++
					if ph.firstErr == nil {
						ph.firstErr = err
					}
					mu.Unlock()
					continue
				}
				ok.Add(1)
				ph.lat[w] = append(ph.lat[w], lat.Nanoseconds())
				ph.done[w] = append(ph.done[w], time.Since(start).Nanoseconds())
				if pr != nil {
					pr.record(op, t0, times)
				}
			}
		}(w)
	}
	wg.Wait()
	ph.elapsed = since(start)
	ph.attempted, ph.ok, ph.stmts, ph.tclStmts = attempted.Load(), ok.Load(), stmts.Load(), tcl.Load()
	return ph
}

// opResult is what one statement returned.
type opResult struct {
	rows     []sqltypes.Row
	affected int64
}

// runOp executes an op's statements in order and returns their results
// and end times. A failed statement inside a transaction rolls it back.
func runOp(c conn, op []stmt) ([]opResult, []time.Time, error) {
	res := make([]opResult, len(op))
	ends := make([]time.Time, len(op))
	for i, s := range op {
		var err error
		if s.query {
			res[i].rows, err = c.query(s.sql, s.args)
		} else {
			res[i].affected, err = c.exec(s.sql, s.args)
		}
		ends[i] = time.Now()
		if err != nil {
			if op[0].tcl && i > 0 {
				c.exec("ROLLBACK", nil) // best effort: the op already failed
			}
			return nil, nil, fmt.Errorf("%s: %w", s.sql, err)
		}
	}
	return res, ends, nil
}

// checkOp applies every statement's answer check.
func checkOp(op []stmt, res []opResult) error {
	for i, s := range op {
		if s.check == nil {
			continue
		}
		if err := s.check(res[i].rows, res[i].affected); err != nil {
			return err
		}
	}
	return nil
}

// liveHeap is the live heap in bytes the runtime measured at its most
// recent GC.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuNow is the CPU time (user + system) this process has used. Time the
// hypervisor steals from the virtual machine is not in it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank quantile of sorted values. A quantile
// that falls on a failed op (+Inf), or one of no ops, reads as the
// largest float64, so the result stays valid JSON.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.MaxFloat64
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return min(sorted[max(i, 0)], math.MaxFloat64)
}

// since reports elapsed seconds as a float.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

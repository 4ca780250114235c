package main

// The traced run and its per-layer ledger.
//
// A traced run first measures half its time untraced, reading the
// modules' public counters (plan cache, datanode servers, executor,
// transaction manager, Go runtime) around that interval. The second half
// runs the same closed loop with tracing: each op gets an "op" span and
// one span per statement, and after the op returns the benchmark replays
// its statements through each layer's exported entry points, one timed
// call per layer:
//
//	kernel     core.Session.Execute; on proxy workloads the hop is the
//	           client round trip minus this
//	proxy      embedded-kernel workloads: the same statements through a
//	           proxy connection; the hop is this minus the kernel replay
//	           (reported, not charged to the op)
//	replay.commit  ops without a transaction: their statements once more
//	           inside BEGIN/COMMIT on a kernel session, COMMIT timed
//	normalize  sqlparser.Normalize
//	plancache  plancache.Cache.Get on the kernel's cache
//	parse      sqlparser.Parse of the normalized shape
//	route      route.Skeleton.Route where the kernel's fast path would
//	           use it, else route.Router.Route
//	rewrite    rewrite.Template.Render likewise, else rewrite.Rewriter.Rewrite
//	acquire    resource.DataSource.Acquire of the first unit's source
//	exec       exec.Executor.QueryCtx + draining every unit, or
//	           ExecuteUpdateCtx (autocommit) for DML
//	merge      merge.Merge over the drained unit results
//	datanode   each unit's SQL on a datanode session directly
//	remote     each unit's SQL through the remote DataSource (wire =
//	           remote minus datanode)
//
// Replays run inside a "probe" span after the op's own spans end, so they
// never inflate the op's time.
//
// Ledger: each layer's self time (span minus the part of it its child
// spans cover; the layer spans are leaves) is charged to the op:
//
//	op = frontend + sqlparser + plancache + route + rewrite + exec + merge
//	     + transaction + core.residual
//
// where sqlparser charges a shape parse at the measured parse rate
// (misses per lookup) plus the parse of every BEGIN/COMMIT, and
// transaction is the kernel-side time of BEGIN/COMMIT minus that parse.
// acquire, datanode and wire happen inside exec and are reported but not
// added again. core.residual is what the op spent outside every measured
// layer call: session glue, digests and telemetry, transaction hooks on
// DML, and the gap between the kernel's fused fast path and the separate
// calls. ledgerTolerance bounds how far the published per-unit and
// per-statement figures, multiplied back out, may miss the op time.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"shardingsphere/internal/merge"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/rewrite"
	"shardingsphere/internal/route"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
)

// ledgerTolerance is the largest relative gap allowed between the traced
// per-op time and the per-layer figures plus core.residual_us.
const ledgerTolerance = 0.01

// maxSpans bounds the spans kept in memory; the traced phase stops
// issuing ops once it is reached.
const maxSpans = 200_000

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N carries units (route, rewrite), input rows (merge) or branches
	// (probe); M carries output rows (merge).
	N int64 `json:"n,omitempty"`
	M int64 `json:"m,omitempty"`
}

type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	ids   int64
	err   error
	// calib holds the first client's recent ops for the serial
	// allocation calibration.
	calib [][]stmt
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= maxSpans || t.err != nil
}

func (t *tracer) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// prober replays one client's ops through the layers. Each client owns
// its prober, so nothing in it is shared.
type prober struct {
	t        *tracer
	cl       *cluster
	w        int
	viaProxy bool
	kernel   conn
	proxy    conn
	nodes    map[string]*sqlexec.Session
	rw       *rewrite.Rewriter
	shapes   map[string]*shape
	buf      []span
	opID     int64
}

// shape mirrors the kernel's cached plan for one normalized statement.
type shape struct {
	stmt       sqlparser.Statement
	sel        *sqlparser.SelectStmt
	skel       *route.Skeleton
	tmpl       *rewrite.Template
	table      string
	logicTable string
}

func (t *tracer) newProber(cl *cluster, w int, viaProxy bool) (*prober, error) {
	pc, err := cl.dial(true)
	if err != nil {
		return nil, err
	}
	p := &prober{
		t: t, cl: cl, w: w, viaProxy: viaProxy,
		kernel: kernelConn{cl.kernel.NewSession()},
		proxy:  pc,
		nodes:  map[string]*sqlexec.Session{},
		shapes: map[string]*shape{},
	}
	for _, n := range cl.nodes {
		p.nodes[n.name] = n.proc.NewSession()
	}
	p.rw = rewrite.New(func(ds string) sqlparser.Dialect {
		if src, err := cl.kernel.Executor().Source(ds); err == nil {
			return src.Dialect()
		}
		return sqlparser.DialectMySQL
	})
	return p, nil
}

func (p *prober) close() {
	p.kernel.close()
	p.proxy.close()
	for _, s := range p.nodes {
		s.Close()
	}
	p.flush()
}

func (p *prober) flush() {
	p.t.mu.Lock()
	p.t.spans = append(p.t.spans, p.buf...)
	p.t.mu.Unlock()
	p.buf = p.buf[:0]
}

func (p *prober) newID() int64 {
	p.t.mu.Lock()
	defer p.t.mu.Unlock()
	p.t.ids++
	return p.t.ids
}

func (p *prober) add(id, parent int64, name string, start, end time.Time, n, m int64) {
	p.buf = append(p.buf, span{ID: id, Parent: parent, Op: p.opID, Name: name,
		Start: p.t.ns(start), End: p.t.ns(end), N: n, M: m})
}

func (p *prober) span(parent int64, name string, start, end time.Time, n, m int64) {
	p.add(p.newID(), parent, name, start, end, n, m)
}

func stmtName(prefix string, s stmt) string {
	switch {
	case s.tcl && s.sql == "BEGIN":
		return prefix + "begin"
	case s.tcl:
		return prefix + "commit"
	}
	return prefix + "stmt"
}

// record stores the op's own spans, then replays it layer by layer.
func (p *prober) record(op []stmt, t0 time.Time, ends []time.Time) {
	p.opID = p.newID()
	p.add(p.opID, 0, "op", t0, ends[len(ends)-1], 0, 0)
	prev := t0
	for i, s := range op {
		p.span(p.opID, stmtName("", s), prev, ends[i], 0, 0)
		prev = ends[i]
	}
	if p.w == 0 {
		p.t.mu.Lock()
		p.t.calib = append(p.t.calib, op)
		if len(p.t.calib) > 8 {
			p.t.calib = p.t.calib[1:]
		}
		p.t.mu.Unlock()
	}
	probeID := p.newID()
	start := time.Now()
	branches, err := p.replay(probeID, op)
	p.add(probeID, p.opID, "probe", start, time.Now(), branches, 0)
	if err != nil {
		p.t.fail(fmt.Errorf("probe: %w", err))
	}
	p.flush()
}

// probed is one replayed statement's rewrite output.
type probed struct {
	units []rewrite.SQLUnit
	sel   *rewrite.SelectContext
	query bool
}

// replay runs the op through every layer and returns the number of data
// sources a transactional op touched (its XA branches).
func (p *prober) replay(parent int64, op []stmt) (int64, error) {
	ctx := context.Background()
	// The hop: proxy workloads compare their own round trips with a
	// kernel replay; embedded-kernel workloads replay on both adaptors,
	// alternating which goes first so neither runs warmer on average.
	type adaptor struct {
		c      conn
		prefix string
	}
	replays := []adaptor{{p.kernel, "kernel."}}
	if !p.viaProxy {
		replays = append(replays, adaptor{p.proxy, "proxy."})
		if p.opID%2 == 0 {
			replays[0], replays[1] = replays[1], replays[0]
		}
	}
	for _, r := range replays {
		if err := p.replayOn(parent, r.c, r.prefix, op); err != nil {
			return 0, err
		}
	}
	if !op[0].tcl {
		tx := append(append([]stmt{beginStmt}, op...), commitStmt)
		if err := p.replayOn(parent, p.kernel, "replay.", tx); err != nil {
			return 0, err
		}
	}
	plans := make([]*probed, len(op))
	sources := map[string]bool{}
	for i, s := range op {
		if s.tcl {
			t := time.Now()
			_, err := sqlparser.Parse(s.sql)
			p.span(parent, "parse.tcl", t, time.Now(), 0, 0)
			if err != nil {
				return 0, err
			}
			continue
		}
		pl, err := p.front(parent, s)
		if err != nil {
			return 0, err
		}
		plans[i] = pl
		for _, u := range pl.units {
			sources[u.DataSource] = true
		}
	}
	for i, pl := range plans {
		if pl == nil {
			continue
		}
		if err := p.execute(ctx, parent, pl); err != nil {
			return 0, fmt.Errorf("exec %s: %w", op[i].sql, err)
		}
	}
	for _, direct := range []bool{true, false} {
		for i, pl := range plans {
			if pl == nil {
				continue
			}
			for _, u := range pl.units {
				if err := p.unit(ctx, parent, u, pl.query, direct); err != nil {
					return 0, fmt.Errorf("unit %s: %w", op[i].sql, err)
				}
			}
		}
	}
	if !op[0].tcl {
		return 0, nil
	}
	return int64(len(sources)), nil
}

// replayOn runs the op's statements on c, one span per statement.
func (p *prober) replayOn(parent int64, c conn, prefix string, op []stmt) error {
	for _, s := range op {
		t := time.Now()
		var err error
		if s.query {
			_, err = c.query(s.sql, s.args)
		} else {
			_, err = c.exec(s.sql, s.args)
		}
		p.span(parent, stmtName(prefix, s), t, time.Now(), 0, 0)
		if err != nil {
			if op[0].tcl {
				c.exec("ROLLBACK", nil) // best effort before reporting
			}
			return fmt.Errorf("%sreplay %s: %w", prefix, s.sql, err)
		}
	}
	return nil
}

// front times normalize, plan-cache lookup, parse, route and rewrite.
func (p *prober) front(parent int64, s stmt) (*probed, error) {
	t := time.Now()
	norm, ok := sqlparser.Normalize(s.sql)
	p.span(parent, "normalize", t, time.Now(), 0, 0)
	if !ok {
		return nil, fmt.Errorf("%s: not normalizable", s.sql)
	}
	args, err := norm.BindArgs(s.args)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	p.cl.kernel.PlanCache().Get(norm.Key)
	p.span(parent, "plancache", t, time.Now(), 0, 0)
	t = time.Now()
	ast, err := sqlparser.Parse(norm.Key)
	p.span(parent, "parse", t, time.Now(), 0, 0)
	if err != nil {
		return nil, err
	}
	sh := p.shape(norm.Key, ast)

	t = time.Now()
	rt, err := p.route(sh, args)
	if err != nil {
		return nil, err
	}
	p.span(parent, "route", t, time.Now(), int64(len(rt.Units)), 0)

	t = time.Now()
	pl, err := p.rewrite(sh, rt, args)
	if err != nil {
		return nil, err
	}
	pl.query = s.query
	p.span(parent, "rewrite", t, time.Now(), int64(len(pl.units)), 0)
	return pl, nil
}

// route takes the kernel's fast path (skeleton) for fast shapes and the
// full router otherwise.
func (p *prober) route(sh *shape, args []sqltypes.Value) (*route.Result, error) {
	if sh.skel != nil {
		return sh.skel.Route(args, nil)
	}
	return p.cl.kernel.Router().Route(sh.stmt, args, nil)
}

// rewrite takes the kernel's fast path (template splice) for single-node
// routes of fast shapes, and the full rewriter otherwise.
func (p *prober) rewrite(sh *shape, rt *route.Result, args []sqltypes.Value) (*probed, error) {
	if sh.tmpl != nil && rt.SingleNode() {
		u := rt.Units[0]
		actual := sh.table
		if a, ok := u.TableMap[sh.logicTable]; ok {
			actual = a
		}
		src, err := p.cl.kernel.Executor().Source(u.DataSource)
		if err != nil {
			return nil, err
		}
		if sql, ok := sh.tmpl.Render(src.Dialect(), actual); ok {
			pl := &probed{units: []rewrite.SQLUnit{{DataSource: u.DataSource, SQL: sql, Args: args,
				LogicTable: sh.logicTable, ActualTable: actual}}}
			if sh.sel != nil {
				pl.sel = rewrite.SingleNodeSelectContext(sh.sel)
			}
			return pl, nil
		}
	}
	rw, err := p.rw.Rewrite(sh.stmt, rt, args)
	if err != nil {
		return nil, err
	}
	return &probed{units: rw.Units, sel: rw.Select}, nil
}

// shape builds (untimed, once per normalized key) what the kernel's plan
// cache holds for it: the AST and, for single-table SELECT/UPDATE/DELETE,
// the route skeleton and rewrite template.
func (p *prober) shape(key string, ast sqlparser.Statement) *shape {
	if sh, ok := p.shapes[key]; ok {
		return sh
	}
	sh := &shape{stmt: ast}
	sh.sel, _ = ast.(*sqlparser.SelectStmt)
	switch t := ast.(type) {
	case *sqlparser.SelectStmt:
		if len(t.From) == 1 {
			sh.table = t.From[0].Name
		}
	case *sqlparser.UpdateStmt:
		sh.table = t.Table
	case *sqlparser.DeleteStmt:
		sh.table = t.Table
	}
	if sh.table != "" {
		if skel, ok := p.cl.kernel.Router().BuildSkeleton(ast); ok {
			if tmpl, ok := rewrite.NewTemplate(ast, sh.table); ok {
				sh.skel, sh.tmpl = skel, tmpl
				if rule, ok := p.cl.kernel.Rules().Rule(sh.table); ok {
					sh.logicTable = rule.LogicTable
				}
			}
		}
	}
	// Bounded like the kernel's own caches: adhoc_lookup has ~12k shapes.
	if len(p.shapes) > 16384 {
		p.shapes = map[string]*shape{}
	}
	p.shapes[key] = sh
	return sh
}

// execute times pool acquire, execution with every unit drained, and the
// merge of the drained results.
func (p *prober) execute(ctx context.Context, parent int64, pl *probed) error {
	ex := p.cl.kernel.Executor()
	src, err := ex.Source(pl.units[0].DataSource)
	if err != nil {
		return err
	}
	t := time.Now()
	pc, err := src.Acquire()
	p.span(parent, "acquire", t, time.Now(), 0, 0)
	if err != nil {
		return err
	}
	pc.Release()

	if !pl.query {
		t = time.Now()
		_, err := ex.ExecuteUpdateCtx(ctx, pl.units, nil, nil)
		p.span(parent, "exec", t, time.Now(), 0, 0)
		return err
	}
	t = time.Now()
	qr, err := ex.QueryCtx(ctx, pl.units, nil, nil, false)
	if err != nil {
		return err
	}
	sets := make([]resource.ResultSet, len(qr.Sets))
	var rowsIn int64
	for i, rs := range qr.Sets {
		rows, err := resource.ReadAll(rs)
		if err != nil {
			return err
		}
		rowsIn += int64(len(rows))
		sets[i] = resource.NewSliceResultSet(rs.Columns(), rows)
	}
	p.span(parent, "exec", t, time.Now(), 0, 0)

	t = time.Now()
	merged, err := merge.Merge(sets, pl.sel)
	if err != nil {
		return err
	}
	out, err := resource.ReadAll(merged)
	p.span(parent, "merge", t, time.Now(), rowsIn, int64(len(out)))
	return err
}

// unit runs one unit's SQL on its datanode: directly on a node session,
// or through the kernel's remote DataSource (wire + node).
func (p *prober) unit(ctx context.Context, parent int64, u rewrite.SQLUnit, query, direct bool) error {
	if direct {
		sess := p.nodes[u.DataSource]
		t := time.Now()
		_, err := sess.Execute(u.SQL, u.Args...)
		p.span(parent, "datanode", t, time.Now(), 0, 0)
		return err
	}
	n := p.cl.node(u.DataSource)
	t := time.Now()
	pc, err := n.remote.Acquire()
	if err != nil {
		return err
	}
	if query {
		var rs resource.ResultSet
		if rs, err = pc.Query(ctx, u.SQL, u.Args...); err == nil {
			_, err = resource.ReadAll(rs)
		}
	} else {
		_, err = pc.Exec(ctx, u.SQL, u.Args...)
	}
	pc.Release()
	p.span(parent, "remote", t, time.Now(), 0, 0)
	return err
}

// counters is a snapshot of the public counters the ledger reads.
type counters struct {
	hits, misses   uint64
	nodeStatements int64
	retries        int64
	xaCommits      int64
	fastCommits    int64
	mallocs, bytes uint64
	gcCPU          float64
	cpu            time.Duration
}

func (cl *cluster) counters() counters {
	var c counters
	st := cl.kernel.PlanCache().Stats()
	c.hits, c.misses = st.Hits, st.Misses
	c.nodeStatements = cl.nodeStatements()
	c.retries = cl.kernel.Executor().Metrics()["retries"] + cl.kernel.ResilienceMetrics()["failovers"]
	tx := cl.kernel.TxManager().Metrics()
	c.xaCommits, c.fastCommits = tx["xa_commits"], tx["fastpath_commits"]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	c.cpu = cpuNow()
	return c
}

// traced runs the untraced and traced halves and returns the ledger.
func (d *runner) traced() (*phase, map[string]metric, error) {
	half := d.cfg.seconds / 2
	shed0 := d.cl.admission.ShedTotal()
	c0 := d.cl.counters()
	plain := d.measure(half, 1, nil)
	c1 := d.cl.counters()
	tr := newTracer()
	traced := d.measure(half, 2, tr)
	if tr.err != nil {
		return nil, nil, tr.err
	}
	allocs, err := d.calibrate(tr)
	if err != nil {
		return nil, nil, err
	}
	m, err := buildLedger(tr.spans, plain, traced, c0, c1, d.cfg.workload.viaProxy)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range allocs {
		m[k] = v
	}
	m["admission.shed"] = metric{float64(d.cl.admission.ShedTotal() - shed0), "count"}
	if d.cfg.spanFile != "" {
		if err := writeSpans(d.cfg.spanFile, tr.spans); err != nil {
			return nil, nil, err
		}
	}
	// The latencies are the untraced half's, which op.p50_ms and
	// op.p99_ms come from.
	all := &phase{
		attempted: plain.attempted + traced.attempted,
		ok:        plain.ok + traced.ok,
		lat:       plain.lat,
		failedLat: plain.failedLat,
		firstErr:  plain.firstErr,
	}
	if all.firstErr == nil {
		all.firstErr = traced.firstErr
	}
	return all, m, nil
}

// calibrate measures allocations per call with the clients stopped, so
// the process-wide malloc counter sees only the calls being measured.
func (d *runner) calibrate(tr *tracer) (map[string]metric, error) {
	ops := tr.calib
	out := map[string]metric{"proxy.allocs_per_stmt": {0, "count"}, "rewrite.allocs_per_unit": {0, "count"}}
	if len(ops) == 0 {
		return out, nil
	}
	var stmts int
	for _, op := range ops {
		stmts += len(op)
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	replay := func(c conn) error {
		for _, op := range ops {
			if _, _, err := runOp(c, op); err != nil {
				return err
			}
		}
		return nil
	}
	p, err := tr.newProber(d.cl, -1, false)
	if err != nil {
		return nil, err
	}
	defer p.close()
	m0 := mallocs()
	if err := replay(p.proxy); err != nil {
		return nil, err
	}
	m1 := mallocs()
	if err := replay(p.kernel); err != nil {
		return nil, err
	}
	m2 := mallocs()
	out["proxy.allocs_per_stmt"] = metric{(float64(m1-m0) - float64(m2-m1)) / float64(stmts), "count"}

	type routed struct {
		sh   *shape
		rt   *route.Result
		args []sqltypes.Value
	}
	var todo []routed
	for _, op := range ops {
		for _, s := range op {
			if s.tcl {
				continue
			}
			norm, ok := sqlparser.Normalize(s.sql)
			if !ok {
				continue
			}
			args, err := norm.BindArgs(s.args)
			if err != nil {
				return nil, err
			}
			ast, err := sqlparser.Parse(norm.Key)
			if err != nil {
				return nil, err
			}
			sh := p.shape(norm.Key, ast)
			rt, err := p.route(sh, args)
			if err != nil {
				return nil, err
			}
			todo = append(todo, routed{sh, rt, args})
		}
	}
	var units int
	m0 = mallocs()
	for _, r := range todo {
		pl, err := p.rewrite(r.sh, r.rt, r.args)
		if err != nil {
			return nil, err
		}
		units += len(pl.units)
	}
	m1 = mallocs()
	if units > 0 {
		out["rewrite.allocs_per_unit"] = metric{float64(m1-m0) / float64(units), "count"}
	}
	p.buf = p.buf[:0]
	return out, nil
}

// selfTimes returns each span's duration minus the part of it covered by
// its children, in nanoseconds.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered, cursor := int64(0), s.Start
		kids := children[s.ID]
		sortSpans(kids)
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func sortSpans(s []span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Start < s[j-1].Start; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// layerTotals sums self time (µs), span count and the N/M fields by span
// name.
type layerTotals struct {
	us    map[string]float64
	count map[string]float64
	n, m  map[string]float64
}

func totals(spans []span) layerTotals {
	self := selfTimes(spans)
	lt := layerTotals{us: map[string]float64{}, count: map[string]float64{}, n: map[string]float64{}, m: map[string]float64{}}
	for _, s := range spans {
		lt.us[s.Name] += float64(self[s.ID]) / 1e3
		lt.count[s.Name]++
		lt.n[s.Name] += float64(s.N)
		lt.m[s.Name] += float64(s.M)
	}
	return lt
}

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ledger is the per-op charge of every layer, in µs.
type ledger struct {
	op, frontend, sqlparser, plancache, route, rewrite, exec, merge, transaction, residual float64
}

func (l ledger) layers() float64 {
	return l.frontend + l.sqlparser + l.plancache + l.route + l.rewrite + l.exec + l.merge + l.transaction
}

// buildLedger turns the traced spans and the untraced counters into the
// per-layer metrics.
func buildLedger(spans []span, plain, traced *phase, c0, c1 counters, viaProxy bool) (map[string]metric, error) {
	lt := totals(spans)
	ops := lt.count["op"]
	if ops == 0 {
		return nil, fmt.Errorf("traced run completed no ops")
	}
	lookups := float64(c1.hits-c0.hits) + float64(c1.misses-c0.misses)
	missRate := per(float64(c1.misses-c0.misses), lookups)
	stmtUs := lt.us["stmt"] + lt.us["begin"] + lt.us["commit"]
	stmtN := lt.count["stmt"] + lt.count["begin"] + lt.count["commit"]

	var l ledger
	// The op span's own self time is the client loop between statements;
	// the ledger base is the whole op.
	l.op = per(lt.us["op"]+stmtUs, ops)
	txUs := lt.us["begin"] + lt.us["commit"]
	commitUs := per(lt.us["commit"], lt.count["commit"])
	proxyUs := lt.us["proxy.stmt"] + lt.us["proxy.begin"] + lt.us["proxy.commit"]
	kernelUs := lt.us["kernel.stmt"] + lt.us["kernel.begin"] + lt.us["kernel.commit"]
	hop := per(proxyUs-kernelUs, stmtN)
	if viaProxy {
		l.frontend = per(stmtUs-kernelUs, ops)
		hop = per(stmtUs-kernelUs, stmtN)
		txUs = lt.us["kernel.begin"] + lt.us["kernel.commit"]
		commitUs = per(lt.us["kernel.commit"], lt.count["kernel.commit"])
	}
	if lt.count["replay.commit"] > 0 {
		// No transaction in the op: the commit of its statements replayed
		// in one, which the ledger does not charge.
		commitUs = per(lt.us["replay.commit"], lt.count["replay.commit"])
	}
	parseUs := per(lt.us["parse"], lt.count["parse"])
	l.sqlparser = per(lt.us["normalize"]+parseUs*missRate*lt.count["parse"]+lt.us["parse.tcl"], ops)
	l.plancache = per(lt.us["plancache"], ops)
	l.route = per(lt.us["route"], ops)
	l.rewrite = per(lt.us["rewrite"], ops)
	l.exec = per(lt.us["exec"], ops)
	l.merge = per(lt.us["merge"], ops)
	l.transaction = per(txUs-lt.us["parse.tcl"], ops)
	l.residual = l.op - l.layers()

	plainOps := float64(plain.ok)
	plainStmts := float64(plain.stmts)
	cpu := (c1.cpu - c0.cpu).Seconds()
	xa := float64(c1.xaCommits - c0.xaCommits)
	fast := float64(c1.fastCommits - c0.fastCommits)
	units := lt.n["rewrite"]
	plainLat := plain.latencies()
	m := map[string]metric{
		"ledger.op_us":                    {l.op, "us"},
		"proxy.hop_us":                    {hop, "us"},
		"sqlparser.normalize_us":          {per(lt.us["normalize"], lt.count["normalize"]), "us"},
		"sqlparser.parse_us":              {parseUs, "us"},
		"sqlparser.parses_per_stmt":       {per(float64(c1.misses-c0.misses)+float64(plain.tclStmts), plainStmts), "count"},
		"plancache.hit_ratio":             {per(float64(c1.hits-c0.hits), lookups), "ratio"},
		"plancache.lookup_us":             {per(lt.us["plancache"], lt.count["plancache"]), "us"},
		"route.us_per_stmt":               {per(lt.us["route"], lt.count["route"]), "us"},
		"route.units_per_stmt":            {per(lt.n["route"], lt.count["route"]), "count"},
		"rewrite.us_per_unit":             {per(lt.us["rewrite"], units), "us"},
		"exec.us_per_stmt":                {per(lt.us["exec"], lt.count["exec"]), "us"},
		"exec.round_trips_per_stmt":       {per(float64(c1.nodeStatements-c0.nodeStatements), plainStmts), "count"},
		"exec.retries_per_stmt":           {per(float64(c1.retries-c0.retries), plainStmts), "count"},
		"resource.acquire_us":             {per(lt.us["acquire"], lt.count["acquire"]), "us"},
		"merge.us_per_stmt":               {per(lt.us["merge"], lt.count["merge"]), "us"},
		"merge.rows_in_per_row_out":       {per(lt.n["merge"], lt.m["merge"]), "ratio"},
		"transaction.commit_us":           {commitUs, "us"},
		"transaction.branches_per_commit": {per(lt.n["probe"], lt.count["commit"]), "count"},
		"transaction.xa_ratio":            {per(xa, xa+fast), "ratio"},
		"datanode.us_per_unit":            {per(lt.us["datanode"], lt.count["datanode"]), "us"},
		"wire.us_per_unit":                {per(lt.us["remote"]-lt.us["datanode"], lt.count["remote"]), "us"},
		"core.residual_us":                {l.residual, "us"},
		"runtime.allocs_per_op":           {per(float64(c1.mallocs-c0.mallocs), plainOps), "count"},
		"runtime.bytes_per_op":            {per(float64(c1.bytes-c0.bytes), plainOps), "B"},
		"runtime.gc_cpu_fraction":         {per(c1.gcCPU-c0.gcCPU, cpu), "ratio"},
		"runtime.cpu_us_per_op":           {per(cpu*1e6, plainOps), "us"},
		"trace.overhead_pct":              {100 * (1 - per(float64(traced.ok)/traced.elapsed, float64(plain.ok)/plain.elapsed)), "%"},
		// Op latency on the wall clock, untraced: host steal moves it.
		"op.p50_ms": {quantile(plainLat, 0.50), "ms"},
		"op.p99_ms": {quantile(plainLat, 0.99), "ms"},
	}
	if gap := closureGap(m, lt, l, missRate, ops); gap > ledgerTolerance {
		return nil, fmt.Errorf("ledger does not close: per-layer figures miss the op time by %.2f%%", 100*gap)
	}
	return m, nil
}

// closureGap multiplies the published per-statement and per-unit figures
// back out to a per-op sum and returns its relative distance from the
// traced per-op time.
func closureGap(m map[string]metric, lt layerTotals, l ledger, missRate, ops float64) float64 {
	v := func(k string) float64 { return m[k].Value }
	perOp := func(name string) float64 { return lt.count[name] / ops }
	sum := l.frontend +
		v("sqlparser.normalize_us")*perOp("normalize") +
		v("sqlparser.parse_us")*missRate*perOp("parse") + lt.us["parse.tcl"]/ops +
		v("plancache.lookup_us")*perOp("plancache") +
		v("route.us_per_stmt")*perOp("route") +
		v("rewrite.us_per_unit")*lt.n["rewrite"]/ops +
		v("exec.us_per_stmt")*perOp("exec") +
		v("merge.us_per_stmt")*perOp("merge") +
		l.transaction + v("core.residual_us")
	return abs(sum-v("ledger.op_us")) / v("ledger.op_us")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

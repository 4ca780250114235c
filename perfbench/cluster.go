package main

import (
	"context"
	"fmt"

	"shardingsphere/internal/admission"
	"shardingsphere/internal/core"
	"shardingsphere/internal/proxy"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sharding"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// Topology of the system under test: five wire-v2 datanodes, sbtest
// MOD-sharded into 50 actual tables (10 per source), MaxCon 4.
const (
	numSources      = 5
	tablesPerSource = 10
	maxCon          = 4
	loadBatch       = 500
)

// datanode is one networked data node and the kernel's pooled remote
// handle on it.
type datanode struct {
	name   string
	proc   *sqlexec.Processor
	server *proxy.Server
	remote *resource.DataSource
}

// cluster is one freshly built and loaded deployment.
type cluster struct {
	gen       rowGen
	nodes     []*datanode
	kernel    *core.Kernel
	frontend  *proxy.Server
	admission *admission.Controller
	addr      string // proxy listen address
}

// newCluster starts the datanodes, the kernel and the proxy, creates the
// schema and bulk-loads gen.rows rows through the kernel.
func newCluster(gen rowGen) (*cluster, error) {
	cl := &cluster{gen: gen}
	sources := map[string]*resource.DataSource{}
	var names []string
	for i := 0; i < numSources; i++ {
		name := fmt.Sprintf("ds%d", i)
		proc := sqlexec.NewProcessor(storage.NewEngine(name))
		srv := proxy.NewServer(&proxy.NodeBackend{Processor: proc})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("start datanode %s: %w", name, err)
		}
		ds := client.NewRemoteDataSource(name, addr, nil)
		cl.nodes = append(cl.nodes, &datanode{name: name, proc: proc, server: srv, remote: ds})
		sources[name] = ds
		names = append(names, name)
	}
	rule, err := sharding.BuildAutoRule(sharding.AutoTableSpec{
		LogicTable:     "sbtest",
		Resources:      names,
		ShardingColumn: "id",
		AlgorithmType:  "MOD",
		ShardingCount:  numSources * tablesPerSource,
	})
	if err != nil {
		cl.close()
		return nil, err
	}
	rules := sharding.NewRuleSet()
	rules.AddRule(rule)
	cl.kernel, err = core.New(core.Config{
		Rules:   rules,
		Sources: sources,
		MaxCon:  maxCon,
	})
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.frontend = proxy.NewServer(&proxy.KernelBackend{Kernel: cl.kernel})
	cl.admission = admission.NewController(admission.Config{})
	cl.frontend.SetAdmission(cl.admission)
	cl.kernel.SetAdmission(cl.admission)
	if cl.addr, err = cl.frontend.Start("127.0.0.1:0"); err != nil {
		cl.close()
		return nil, fmt.Errorf("start proxy: %w", err)
	}
	if err := cl.load(); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

func (cl *cluster) load() error {
	sess := cl.kernel.NewSession()
	defer sess.Close()
	for _, ddl := range []string{
		"CREATE TABLE sbtest (id INT PRIMARY KEY, k INT NOT NULL, c VARCHAR(120) NOT NULL, pad CHAR(60) NOT NULL)",
		"CREATE INDEX k_sbtest ON sbtest (k)",
	} {
		if _, err := sess.Exec(ddl); err != nil {
			return fmt.Errorf("schema: %w", err)
		}
	}
	for lo := int64(1); lo <= int64(cl.gen.rows); lo += loadBatch {
		hi := min(lo+loadBatch-1, int64(cl.gen.rows))
		res, err := sess.Exec(cl.gen.insertBatch(lo, hi))
		if err != nil {
			return fmt.Errorf("load rows %d-%d: %w", lo, hi, err)
		}
		if res.Affected != hi-lo+1 {
			return fmt.Errorf("load rows %d-%d: affected %d", lo, hi, res.Affected)
		}
	}
	return nil
}

func (cl *cluster) close() {
	if cl.frontend != nil {
		cl.frontend.Close()
	}
	for _, n := range cl.nodes {
		n.remote.Close()
		n.server.Close()
	}
}

// nodeStatements sums the statements every datanode server has answered:
// the kernel's backend round trips.
func (cl *cluster) nodeStatements() int64 {
	var n int64
	for _, d := range cl.nodes {
		n += d.server.Metrics()["statements"]
	}
	return n
}

// node returns the datanode serving a data source name.
func (cl *cluster) node(name string) *datanode {
	for _, d := range cl.nodes {
		if d.name == name {
			return d
		}
	}
	return nil
}

// verifyIntact checks what every workload must leave behind: all rows
// present with ids exactly 1..rows, and no prepared XA branch on any
// datanode.
func (cl *cluster) verifyIntact() error {
	sess := cl.kernel.NewSession()
	defer sess.Close()
	rs, err := sess.Query("SELECT id FROM sbtest ORDER BY id")
	if err != nil {
		return err
	}
	rows, err := resource.ReadAll(rs)
	if err != nil {
		return err
	}
	if len(rows) != cl.gen.rows {
		return fmt.Errorf("row count %d, want %d", len(rows), cl.gen.rows)
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i+1) {
			return fmt.Errorf("id set changed: position %d holds id %d", i, r[0].AsInt())
		}
	}
	for _, d := range cl.nodes {
		ns := d.proc.NewSession()
		res, err := ns.Execute("XA RECOVER")
		ns.Close()
		if err != nil {
			return fmt.Errorf("%s: XA RECOVER: %w", d.name, err)
		}
		if len(res.Rows) != 0 {
			return fmt.Errorf("%s: %d prepared XA branches left", d.name, len(res.Rows))
		}
	}
	if n := cl.kernel.TxManager().Metrics()["in_doubt"]; n != 0 {
		return fmt.Errorf("%d in-doubt transactions", n)
	}
	return nil
}

// conn is one closed-loop client session: the proxy's wire client or an
// embedded kernel session.
type conn interface {
	query(sql string, args []sqltypes.Value) ([]sqltypes.Row, error)
	exec(sql string, args []sqltypes.Value) (int64, error)
	close()
}

type proxyConn struct{ c *client.Conn }

func (p proxyConn) query(sql string, args []sqltypes.Value) ([]sqltypes.Row, error) {
	rs, err := p.c.Query(context.Background(), sql, args...)
	if err != nil {
		return nil, err
	}
	return resource.ReadAll(rs)
}

func (p proxyConn) exec(sql string, args []sqltypes.Value) (int64, error) {
	res, err := p.c.Exec(context.Background(), sql, args...)
	return res.Affected, err
}

func (p proxyConn) close() { p.c.Close() }

type kernelConn struct{ s *core.Session }

func (k kernelConn) query(sql string, args []sqltypes.Value) ([]sqltypes.Row, error) {
	rs, err := k.s.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return resource.ReadAll(rs)
}

func (k kernelConn) exec(sql string, args []sqltypes.Value) (int64, error) {
	res, err := k.s.Exec(sql, args...)
	return res.Affected, err
}

func (k kernelConn) close() { k.s.Close() }

// dial opens a session through the proxy or directly on the kernel.
func (cl *cluster) dial(viaProxy bool) (conn, error) {
	if !viaProxy {
		return kernelConn{cl.kernel.NewSession()}, nil
	}
	c, err := client.Dial(cl.addr)
	if err != nil {
		return nil, err
	}
	return proxyConn{c}, nil
}

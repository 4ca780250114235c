package proxy

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"shardingsphere/internal/protocol"
	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqlexec"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
	"shardingsphere/pkg/client"
)

// startNodeServer is startNode but also returns the server for metrics.
func startNodeServer(t *testing.T, name string) (string, *Server) {
	t.Helper()
	proc := sqlexec.NewProcessor(storage.NewEngine(name))
	srv := NewServer(&NodeBackend{Processor: proc})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, srv
}

// TestPipelinedConcurrency hammers one multiplexed transport from many
// goroutines, each running its own stream of prepared inserts and
// point selects. Run under -race it doubles as the data-race check for
// the demux/flush-coalescing paths.
func TestPipelinedConcurrency(t *testing.T) {
	addr, srv := startNodeServer(t, "mux-conc")
	tr, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	setup, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const workers = 8
	const stmts = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := tr.OpenConn()
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			ctx := context.Background()
			for i := 0; i < stmts; i++ {
				id := w*stmts + i
				if _, err := conn.Exec(ctx, "INSERT INTO t (id, v) VALUES (?, ?)",
					sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(id))); err != nil {
					errCh <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				rs, err := conn.Query(ctx, "SELECT v FROM t WHERE id = ?", sqltypes.NewInt(int64(id)))
				if err != nil {
					errCh <- fmt.Errorf("worker %d select %d: %w", w, i, err)
					return
				}
				rows, err := resource.ReadAll(rs)
				if err != nil || len(rows) != 1 || rows[0][0].I != int64(id) {
					errCh <- fmt.Errorf("worker %d select %d: rows=%v err=%v", w, i, rows, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// All workers shared one socket.
	if got := srv.connsTotal.Load(); got != 1 {
		t.Fatalf("expected 1 TCP connection, server saw %d", got)
	}
	if got := srv.streamsOpened.Load(); got < workers {
		t.Fatalf("expected >= %d streams, server saw %d", workers, got)
	}
	if got := srv.preparedTotal.Load(); got == 0 {
		t.Fatal("prepared-statement path never used")
	}
}

// TestExecBatchPipelined sends a multi-statement batch down one stream
// and checks per-statement error attribution.
func TestExecBatchPipelined(t *testing.T) {
	addr, _ := startNodeServer(t, "mux-batch")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	if _, err := conn.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	stmts := make([]resource.Statement, 0, 100)
	for i := 0; i < 100; i++ {
		stmts = append(stmts, resource.Statement{
			SQL:  "INSERT INTO t (id) VALUES (?)",
			Args: []sqltypes.Value{sqltypes.NewInt(int64(i))},
		})
	}
	results, err := conn.ExecBatch(ctx, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 100 {
		t.Fatalf("want 100 results, got %d", len(results))
	}
	// A failing statement mid-batch reports its index; earlier results
	// still come back.
	bad := []resource.Statement{
		{SQL: "INSERT INTO t (id) VALUES (?)", Args: []sqltypes.Value{sqltypes.NewInt(1000)}},
		{SQL: "INSERT INTO missing (id) VALUES (1)"},
		{SQL: "INSERT INTO t (id) VALUES (?)", Args: []sqltypes.Value{sqltypes.NewInt(1001)}},
	}
	results, err = conn.ExecBatch(ctx, bad)
	var be *resource.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want BatchError at index 1, got %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result before the failure, got %d", len(results))
	}
	// The stream stays usable after a batch error.
	rs, err := conn.Query(ctx, "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if len(rows) != 1 {
		t.Fatalf("count rows: %v", rows)
	}
}

// hangBackend wraps the node backend; statements containing the marker
// block until release is closed, everything else passes through.
type hangBackend struct {
	inner   Backend
	release chan struct{}
	hung    chan struct{} // receives one token per hung statement
}

func (b *hangBackend) NewBackendSession() BackendSession {
	return &hangSession{inner: b.inner.NewBackendSession(), b: b}
}

type hangSession struct {
	inner BackendSession
	b     *hangBackend
}

func (s *hangSession) Execute(sql string, args []sqltypes.Value) ([]string, resource.ResultSet, int64, int64, error) {
	if strings.Contains(sql, "SLEEPY") {
		s.b.hung <- struct{}{}
		<-s.b.release
		return nil, nil, 0, 0, fmt.Errorf("hung statement released")
	}
	return s.inner.Execute(sql, args)
}

func (s *hangSession) Close() { s.inner.Close() }

// TestHungStreamDoesNotStallSiblings parks one stream inside a hung
// statement and proves sibling streams on the same socket keep serving.
func TestHungStreamDoesNotStallSiblings(t *testing.T) {
	proc := sqlexec.NewProcessor(storage.NewEngine("mux-hang"))
	hb := &hangBackend{
		inner:   &NodeBackend{Processor: proc},
		release: make(chan struct{}),
		hung:    make(chan struct{}, 1),
	}
	srv := NewServer(hb)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	tr, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	hungConn, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	hungCtx, hungCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer hungCancel()
	hungDone := make(chan error, 1)
	go func() {
		_, err := hungConn.Exec(hungCtx, "SELECT SLEEPY")
		hungDone <- err
	}()
	<-hb.hung // the statement is wedged inside its stream worker

	// A sibling stream on the same socket must make progress now.
	sibling, err := tr.OpenConn()
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sibling.Exec(ctx, "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("sibling stalled behind hung stream: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sibling.Exec(ctx, "INSERT INTO t (id) VALUES (?)", sqltypes.NewInt(int64(i))); err != nil {
			t.Fatalf("sibling insert %d: %v", i, err)
		}
	}
	if got := srv.connsTotal.Load(); got != 1 {
		t.Fatalf("test invalid: expected shared socket, got %d conns", got)
	}

	// The hung caller's deadline fires: its logical conn dies, the
	// shared transport does not.
	if err := <-hungDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung statement should hit its deadline, got %v", err)
	}
	if !hungConn.Defunct() {
		t.Fatal("abandoned conn must be defunct")
	}
	if _, err := sibling.Exec(ctx, "INSERT INTO t (id) VALUES (100)"); err != nil {
		t.Fatalf("sibling broken after stream abort: %v", err)
	}
	hungConn.Close()
	// Unwedge the server worker so shutdown doesn't wait on it; its late
	// response targets a closed stream and is dropped by the demuxer.
	close(hb.release)
}

// TestMuxSocketBudget drives 64 logical connections through a remote
// data source and checks the server saw only the mux socket budget, not
// one TCP connection per logical conn.
func TestMuxSocketBudget(t *testing.T) {
	addr, srv := startNodeServer(t, "mux-budget")
	const logical = 64
	ds := client.NewRemoteDataSource("remote", addr, &resource.Options{PoolSize: logical})
	t.Cleanup(func() { ds.Close() })

	setup, err := ds.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(context.Background(), "CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	setup.Release()

	// Check out all logical conns at once, use each, release.
	conns := make([]*resource.PooledConn, 0, logical)
	for i := 0; i < logical; i++ {
		pc, err := ds.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, pc)
	}
	var wg sync.WaitGroup
	for i, pc := range conns {
		wg.Add(1)
		go func(i int, pc *resource.PooledConn) {
			defer wg.Done()
			pc.Exec(context.Background(), "INSERT INTO t (id) VALUES (?)", sqltypes.NewInt(int64(i)))
		}(i, pc)
	}
	wg.Wait()
	for _, pc := range conns {
		pc.Release()
	}

	if got := srv.connsTotal.Load(); got > client.DefaultMuxSockets {
		t.Fatalf("%d logical conns used %d sockets; budget is %d", logical, got, client.DefaultMuxSockets)
	}
	m := ds.AuxMetrics()
	if m == nil {
		t.Fatal("remote data source reports no aux metrics")
	}
	if m["sockets_open"] > int64(client.DefaultMuxSockets) {
		t.Fatalf("aux metrics report %d sockets open", m["sockets_open"])
	}
	rs, err := func() (resource.ResultSet, error) {
		pc, err := ds.Acquire()
		if err != nil {
			return nil, err
		}
		defer pc.Release()
		return pc.Query(context.Background(), "SELECT COUNT(*) FROM t")
	}()
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := resource.ReadAll(rs)
	if len(rows) != 1 || rows[0][0].I != logical {
		t.Fatalf("want %d rows inserted, got %v", logical, rows)
	}
}

// firstFrameReply opens a raw socket, sends one bare frame as the
// connection's first and returns the server's reply.
func firstFrameReply(t *testing.T, addr string, typ byte, payload []byte) (byte, []byte, net.Conn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	w := bufio.NewWriter(nc)
	if err := protocol.WriteFrame(w, typ, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rtyp, rpayload, err := protocol.ReadFrame(bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, rpayload, nc
}

// TestHandshakeContract pins the only accepted opening: a Hello offering
// version 2 with exactly LocalCaps gets the 12-byte HelloAck. Any other
// first frame, and any other Hello, gets one FrameError and a closed
// socket.
func TestHandshakeContract(t *testing.T) {
	addr, srv := startNodeServer(t, "handshake")
	hello := protocol.EncodeHelloCaps(protocol.Version2, protocol.MaxFrame, protocol.LocalCaps)

	typ, ack, _ := firstFrameReply(t, addr, protocol.FrameHello, hello)
	if typ != protocol.FrameHelloAck || len(ack) != 12 {
		t.Fatalf("full hello: got %#x with %d-byte payload, want 12-byte HelloAck", typ, len(ack))
	}
	if v, _, caps, err := protocol.DecodeHelloCaps(ack); err != nil || v != protocol.Version2 || caps != protocol.LocalCaps {
		t.Fatalf("ack: version %d caps %#x err %v", v, caps, err)
	}

	refused := []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"ping first", protocol.FramePing, nil},
		{"statement first", protocol.FrameExecStmt, protocol.EncodeExecStmt(1, nil)},
		{"version 1", protocol.FrameHello, protocol.EncodeHelloCaps(1, protocol.MaxFrame, protocol.LocalCaps)},
		{"version 3", protocol.FrameHello, protocol.EncodeHelloCaps(3, protocol.MaxFrame, protocol.LocalCaps)},
		{"no caps", protocol.FrameHello, protocol.EncodeHelloCaps(protocol.Version2, protocol.MaxFrame, 0)},
		{"partial caps", protocol.FrameHello, protocol.EncodeHelloCaps(protocol.Version2, protocol.MaxFrame, protocol.CapTraceContext)},
		{"unknown cap", protocol.FrameHello, protocol.EncodeHelloCaps(protocol.Version2, protocol.MaxFrame, protocol.LocalCaps|1<<7)},
		{"8-byte hello", protocol.FrameHello, hello[:8]},
	}
	for _, tc := range refused {
		typ, _, nc := firstFrameReply(t, addr, tc.typ, tc.payload)
		if typ != protocol.FrameError {
			t.Fatalf("%s: got %#x, want FrameError", tc.name, typ)
		}
		// Exactly one frame, then the server closes: the next read hits
		// EOF rather than a second reply or the deadline.
		if _, err := nc.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: socket not closed after the error frame: %v", tc.name, err)
		}
	}
	if got := srv.Metrics()["statements"]; got != 0 {
		t.Fatalf("refused connections ran %d statements", got)
	}
}

// TestDialRefusedHello points the client at a server that answers Hello
// with FrameError, and at one whose HelloAck lacks capabilities: every
// dial path must return an error and never a usable conn.
func TestDialRefusedHello(t *testing.T) {
	fake := func(reply func(w *bufio.Writer)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				go func(nc net.Conn) {
					defer nc.Close()
					if _, _, err := protocol.ReadFrame(bufio.NewReader(nc)); err != nil {
						return
					}
					w := bufio.NewWriter(nc)
					reply(w)
					w.Flush()
				}(nc)
			}
		}()
		return ln.Addr().String()
	}
	refusing := fake(func(w *bufio.Writer) {
		protocol.WriteFrame(w, protocol.FrameError, protocol.EncodeError("proxy: unknown frame"))
	})
	capless := fake(func(w *bufio.Writer) {
		protocol.WriteFrame(w, protocol.FrameHelloAck, protocol.EncodeHelloCaps(protocol.Version2, protocol.MaxFrame, 0))
	})

	conn, err := client.Dial(refusing)
	if conn != nil || !errors.Is(err, client.ErrRemote) {
		t.Fatalf("Dial against a refusing server: conn=%v err=%v", conn, err)
	}
	if tr, err := client.DialMux(refusing); tr != nil || err == nil {
		t.Fatalf("DialMux against a refusing server: tr=%v err=%v", tr, err)
	}
	ds := client.NewRemoteDataSource("refusing", refusing, &resource.Options{PoolSize: 2})
	t.Cleanup(func() { ds.Close() })
	if pc, err := ds.Acquire(); err == nil {
		pc.Release()
		t.Fatal("pool handed out a conn from a refusing server")
	}
	if conn, err := client.Dial(capless); conn != nil || err == nil {
		t.Fatalf("Dial against a capability-less ack: conn=%v err=%v", conn, err)
	}
}

// TestClientDefunctOnOversizedFrame feeds the client a frame that
// claims a payload beyond the negotiated limit; the logical conn must
// go defunct (so the pool discards it) instead of misreading the
// stream.
func TestClientDefunctOnOversizedFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		w := bufio.NewWriter(nc)
		// Accept the v2 handshake.
		if typ, _, err := protocol.ReadFrame(r); err != nil || typ != protocol.FrameHello {
			return
		}
		protocol.WriteFrame(w, protocol.FrameHelloAck, protocol.EncodeHelloCaps(protocol.Version2, protocol.MaxFrame, protocol.LocalCaps))
		w.Flush()
		// Wait for the first statement, then answer with a frame header
		// claiming a 1GB payload.
		if _, _, _, err := protocol.ReadFrameV2(r, protocol.MaxFrame); err != nil {
			return
		}
		var hdr [9]byte
		binary.BigEndian.PutUint32(hdr[0:4], 1<<30)
		hdr[4] = protocol.FrameOK
		binary.BigEndian.PutUint32(hdr[5:9], 1)
		nc.Write(hdr[:])
		// Keep the socket open so the client error comes from the size
		// check, not a broken pipe.
		time.Sleep(2 * time.Second)
	}()

	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = conn.Exec(ctx, "INSERT INTO t VALUES (1)")
	if err == nil {
		t.Fatal("oversized frame must fail the call")
	}
	if !errors.Is(err, protocol.ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if !conn.Defunct() {
		t.Fatal("conn must be defunct after a framing violation")
	}
}

// TestDoExecutesOnce guards against Do probing the statement kind by
// running it twice (Query then Exec): the server's reply
// is already OK-or-rows, so one send must suffice. A double-executed
// INSERT would fail on the duplicate primary key and leave two rows'
// worth of statement counts.
func TestDoExecutesOnce(t *testing.T) {
	addr, srv := startNodeServer(t, "do-once")
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Do("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Do("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatalf("insert via Do: %v", err)
	}
	if res.Rows != nil || res.Exec.Affected != 1 {
		t.Fatalf("insert result: %+v", res)
	}
	res, err = conn.Do("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil {
		t.Fatal("select via Do returned no row set")
	}
	rows, err := resource.ReadAll(res.Rows)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows: %v %v", rows, err)
	}
	// Exactly three statements reached the backend.
	if got := srv.Metrics()["statements"]; got != 3 {
		t.Fatalf("statements executed: want 3, got %d", got)
	}
	// A remote error leaves the conn usable and is not retried as exec.
	if _, err := conn.Do("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if got := srv.Metrics()["statements"]; got != 4 {
		t.Fatalf("statements after error: want 4, got %d", got)
	}
	if conn.Defunct() {
		t.Fatal("remote error must not defunct the conn")
	}
}

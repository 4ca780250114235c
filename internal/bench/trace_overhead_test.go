package bench_test

import (
	"context"
	"testing"

	"shardingsphere/internal/resource"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/pkg/client"
)

// pointSelectAllocs is the measured allocation count of one untraced
// remote point select, client and data node together, in one process.
const pointSelectAllocs = 58

// TestTraceOverhead pins what an untraced remote point select allocates
// (Conn.Query + drain over one NodeBackend). Every statement pays the
// always-on part of trace propagation on this path — the 9-byte
// trace-context trailer, the server's trailer split and the client's
// receive-time stamp — so the ceiling catches propagation, or anything
// else on the wire path, growing its per-statement garbage. Allocation
// counts are deterministic where wall-clock ratios on a shared machine
// are not; the time side is the end-to-end point_select benchmark.
func TestTraceOverhead(t *testing.T) {
	const rows = 1000
	addr, _ := startBenchNode(t, rows)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	var id int64
	op := func() {
		id = (id + 7) % rows
		rs, err := conn.Query(ctx, "SELECT c FROM sbtest WHERE id = ?", sqltypes.NewInt(id))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := resource.ReadAll(rs); err != nil || len(got) != 1 {
			t.Fatalf("point select: %v %v", got, err)
		}
	}
	// Warm the prepared statement and the node's caches first.
	for i := 0; i < 100; i++ {
		op()
	}
	allocs := testing.AllocsPerRun(2000, op)
	t.Logf("untraced remote point select: %.0f allocs/op (ceiling %d)", allocs, pointSelectAllocs)
	if allocs > pointSelectAllocs {
		t.Fatalf("untraced remote point select allocates %.0f/op; ceiling is %d", allocs, pointSelectAllocs)
	}
}

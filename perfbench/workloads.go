package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"shardingsphere/internal/sqltypes"
)

// stmt is one statement of an op with the answer check its result must
// pass. Inputs are generated before the op is timed and checks run after.
type stmt struct {
	sql   string
	args  []sqltypes.Value
	query bool
	// tcl marks BEGIN/COMMIT: never normalized, parsed on every call.
	tcl   bool
	check func(rows []sqltypes.Row, affected int64) error
}

// workload is one named traffic mix. An op is one transaction, or one
// statement where the workload has no transactions.
type workload struct {
	name     string
	viaProxy bool
	// gen builds a client's next op from the client's own stream.
	gen func(g rowGen, rng *rand.Rand) []stmt
	// fillPlanCache makes warm-up run until the plan cache is full, so
	// timing starts at its steady-state hit ratio.
	fillPlanCache bool
	// warmOps is the warm-up's op count, one to two seconds of work on
	// two uncontended cores.
	warmOps int64
}

var workloads = []workload{
	{
		// Fixed per-statement cost: frontend hop, plan-cache hit, one-unit
		// route, one round trip; no fan-out, merge or transaction.
		name:     "point_select",
		viaProxy: true,
		warmOps:  30000,
		gen: func(g rowGen, rng *rand.Rand) []stmt {
			return []stmt{pointSelect(g, randID(g, rng))}
		},
	},
	{
		// Fan-out: each range routes to all 50 tables, so rewrite, 50
		// round trips and the merge dominate; no frontend hop.
		name:    "read_only",
		gen:     readOnly,
		warmOps: 200,
	},
	{
		// A working set larger than the plan cache: parser, uncached
		// route and rewrite, and eviction.
		name:          "adhoc_lookup",
		gen:           adhocLookup,
		fillPlanCache: true,
		warmOps:       3000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const rangeSize = 100

func randID(g rowGen, rng *rand.Rand) int64 { return int64(rng.Intn(g.rows)) + 1 }

var (
	beginStmt  = stmt{sql: "BEGIN", tcl: true}
	commitStmt = stmt{sql: "COMMIT", tcl: true}
)

func pointSelect(g rowGen, id int64) stmt {
	return stmt{
		sql:   "SELECT c FROM sbtest WHERE id = ?",
		args:  []sqltypes.Value{sqltypes.NewInt(id)},
		query: true,
		check: func(rows []sqltypes.Row, _ int64) error {
			if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].AsString() != g.c(id) {
				return fmt.Errorf("point select id=%d: got %v", id, rows)
			}
			return nil
		},
	}
}

// rangeCs returns the expected c values of ids [lo, lo+rangeSize), sorted.
func rangeCs(g rowGen, lo int64) []string {
	out := make([]string, 0, rangeSize)
	for id := lo; id < lo+rangeSize; id++ {
		out = append(out, g.c(id))
	}
	sort.Strings(out)
	return out
}

func column(rows []sqltypes.Row) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("row %d has %d columns, want 1", i, len(r))
		}
		out[i] = r[0].AsString()
	}
	return out, nil
}

func equalStrings(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// rangeStmt is one of the four sysbench range queries over ids
// [lo, lo+rangeSize). sorted says the result order itself is checked;
// otherwise the rows are compared as a multiset.
func rangeStmt(g rowGen, sql string, lo int64, sorted bool) stmt {
	hi := lo + rangeSize - 1
	return stmt{
		sql:   sql,
		args:  []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(hi)},
		query: true,
		check: func(rows []sqltypes.Row, _ int64) error {
			got, err := column(rows)
			if err != nil {
				return err
			}
			if !sorted {
				sort.Strings(got)
			}
			if !equalStrings(got, rangeCs(g, lo)) {
				return fmt.Errorf("%s [%d,%d]: %d rows do not match", sql, lo, hi, len(rows))
			}
			return nil
		},
	}
}

func sumStmt(g rowGen, lo int64) stmt {
	hi := lo + rangeSize - 1
	return stmt{
		sql:   "SELECT SUM(k) FROM sbtest WHERE id BETWEEN ? AND ?",
		args:  []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(hi)},
		query: true,
		check: func(rows []sqltypes.Row, _ int64) error {
			var want int64
			for id := lo; id <= hi; id++ {
				want += g.k(id)
			}
			if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].AsFloat() != float64(want) {
				return fmt.Errorf("sum [%d,%d]: got %v, want %d", lo, hi, rows, want)
			}
			return nil
		},
	}
}

func rangeLo(g rowGen, rng *rand.Rand) int64 {
	return int64(rng.Intn(g.rows-rangeSize+1)) + 1
}

// readOnly is Table II's read events in one transaction: 10 point
// selects and one simple, SUM, ORDER BY and DISTINCT range of 100.
func readOnly(g rowGen, rng *rand.Rand) []stmt {
	op := []stmt{beginStmt}
	for i := 0; i < 10; i++ {
		op = append(op, pointSelect(g, randID(g, rng)))
	}
	op = append(op,
		rangeStmt(g, "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?", rangeLo(g, rng), false),
		sumStmt(g, rangeLo(g, rng)),
		rangeStmt(g, "SELECT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c", rangeLo(g, rng), true),
		// c is unique in the generated data, so DISTINCT keeps all 100.
		rangeStmt(g, "SELECT DISTINCT c FROM sbtest WHERE id BETWEEN ? AND ? ORDER BY c", rangeLo(g, rng), true),
		commitStmt,
	)
	return op
}

// Ad-hoc lookup shapes: 16 IN-list lengths × 24 column orders × 8 ORDER
// BY variants × 4 always-true filters = 12,288 normalized shapes, three
// times the default plan-cache capacity. IN lists stop at 16 ids: each
// datanode caches up to 8192 parsed unit statements, and with 64-id lists
// those ASTs alone held ~800 MB, so 1-2 s GC cycles swung throughput by
// ±25% from run to run.
const maxInList = 16

var (
	adhocCols  = []string{"id", "k", "c", "pad"}
	adhocPerms = permutations(len(adhocCols))
	adhocOrder = []struct {
		col  string
		desc bool
	}{{"", false}, {"id", false}, {"id", true}, {"k", false}, {"k", true}, {"c", false}, {"c", true}, {"pad", false}}
	adhocFilters = []string{"", " AND k > 0", " AND c <> ''", " AND pad <> ''"}
)

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

func (g rowGen) value(id int64, col string) sqltypes.Value {
	switch col {
	case "id":
		return sqltypes.NewInt(id)
	case "k":
		return sqltypes.NewInt(g.k(id))
	case "c":
		return sqltypes.NewString(g.c(id))
	default:
		return sqltypes.NewString(g.pad(id))
	}
}

// adhocLookup is a literal-inlined IN-list lookup with a random length,
// projection order, filter and ORDER BY variant.
func adhocLookup(g rowGen, rng *rand.Rand) []stmt {
	n := 1 + rng.Intn(maxInList)
	perm := adhocPerms[rng.Intn(len(adhocPerms))]
	order := adhocOrder[rng.Intn(len(adhocOrder))]
	cols := make([]string, len(perm))
	for i, p := range perm {
		cols[i] = adhocCols[p]
	}
	// The ids are distinct: a datanode answers a repeated IN value with a
	// repeated row (id IN (2, 2) returns row 2 twice), a known defect the
	// answer check would count on every op that drew a repeat.
	ids := make([]int64, n)
	seen := map[int64]bool{}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM sbtest WHERE id IN (", strings.Join(cols, ", "))
	for i := range ids {
		for ids[i] = randID(g, rng); seen[ids[i]]; ids[i] = randID(g, rng) {
		}
		seen[ids[i]] = true
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", ids[i])
	}
	b.WriteString(")")
	b.WriteString(adhocFilters[rng.Intn(len(adhocFilters))])
	if order.col != "" {
		fmt.Fprintf(&b, " ORDER BY %s", order.col)
		if order.desc {
			b.WriteString(" DESC")
		}
	}
	sql := b.String()
	check := func(rows []sqltypes.Row, _ int64) error {
		want := map[int64]bool{}
		for _, id := range ids {
			want[id] = true
		}
		if len(rows) != len(want) {
			return fmt.Errorf("%s: %d rows, want %d", sql, len(rows), len(want))
		}
		idCol, orderCol := -1, -1
		for i, c := range cols {
			if c == "id" {
				idCol = i
			}
			if c == order.col {
				orderCol = i
			}
		}
		for i, r := range rows {
			if len(r) != len(cols) {
				return fmt.Errorf("%s: row %d has %d columns", sql, i, len(r))
			}
			id := r[idCol].AsInt()
			if !want[id] {
				return fmt.Errorf("%s: unexpected or repeated id %d", sql, id)
			}
			delete(want, id)
			for j, c := range cols {
				if !sqltypes.Equal(r[j], g.value(id, c)) {
					return fmt.Errorf("%s: id %d column %s = %v", sql, id, c, r[j])
				}
			}
			if orderCol >= 0 && i > 0 {
				cmp := sqltypes.Compare(rows[i-1][orderCol], r[orderCol])
				if (!order.desc && cmp > 0) || (order.desc && cmp < 0) {
					return fmt.Errorf("%s: rows %d,%d out of order", sql, i-1, i)
				}
			}
		}
		return nil
	}
	return []stmt{{sql: sql, query: true, check: check}}
}

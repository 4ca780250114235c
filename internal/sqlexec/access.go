package sqlexec

import (
	"shardingsphere/internal/btree"
	"shardingsphere/internal/sqlparser"
	"shardingsphere/internal/sqltypes"
	"shardingsphere/internal/storage"
)

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// constValue evaluates an expression that must not reference columns
// (literal, placeholder, or arithmetic over them).
func constValue(e sqlparser.Expr, args []sqltypes.Value) (sqltypes.Value, bool) {
	hasCol := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if _, ok := x.(*sqlparser.ColumnRef); ok {
			hasCol = true
			return false
		}
		return true
	})
	if hasCol {
		return sqltypes.Null, false
	}
	env := rowEnv{args: args}
	v, err := env.eval(e)
	if err != nil {
		return sqltypes.Null, false
	}
	return v, true
}

// refersToTable reports whether the column reference can belong to the
// table with the given schema and reference names.
func refersToTable(ref *sqlparser.ColumnRef, names []string, schema sqltypes.Schema) bool {
	if ref.Table != "" {
		ok := false
		for _, n := range names {
			if equalFold(n, ref.Table) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return schema.Index(ref.Name) >= 0
}

// accessPlan is the chosen physical access path for one table scan.
type accessPlan struct {
	kind   accessKind
	points []btree.Key // for point/in access
	lo, hi btree.Key   // for range access (inclusive; nil = open)
	index  string      // secondary index name for kindIndex
}

type accessKind uint8

const (
	accessFull accessKind = iota
	accessPKPoint
	accessPKRange
	accessIndex
)

// planAccess inspects the conjuncts that apply to a single table and picks
// an access path: primary-key point/IN lookup, primary-key range, a
// secondary-index equality, or a full scan. Predicates are always
// re-checked against fetched rows, so the plan only needs to be a superset
// of the matching rows.
func planAccess(tbl *storage.Table, names []string, conjuncts []sqlparser.Expr, args []sqltypes.Value) accessPlan {
	schema := tbl.Schema()
	pkCols := tbl.PKColumns()
	pkCol := -1
	if len(pkCols) == 1 {
		pkCol = pkCols[0]
	}
	var plan accessPlan
	var lo, hi *sqltypes.Value

	for _, c := range conjuncts {
		switch t := c.(type) {
		case *sqlparser.BinaryExpr:
			ref, val, op, ok := extractColCmp(t, names, schema, args)
			if !ok {
				continue
			}
			col := schema.Index(ref.Name)
			if col == pkCol {
				switch op {
				case sqlparser.OpEQ:
					return accessPlan{kind: accessPKPoint, points: []btree.Key{{val}}}
				case sqlparser.OpGE, sqlparser.OpGT:
					if lo == nil || sqltypes.Compare(val, *lo) > 0 {
						v := val
						lo = &v
					}
				case sqlparser.OpLE, sqlparser.OpLT:
					if hi == nil || sqltypes.Compare(val, *hi) < 0 {
						v := val
						hi = &v
					}
				}
			} else if op == sqlparser.OpEQ && plan.kind == accessFull {
				if idx, ok := tbl.HasIndexOn(col); ok {
					plan = accessPlan{kind: accessIndex, index: idx, points: []btree.Key{{val}}}
				}
			}
		case *sqlparser.InExpr:
			if t.Not {
				continue
			}
			ref, ok := t.E.(*sqlparser.ColumnRef)
			if !ok || !refersToTable(ref, names, schema) {
				continue
			}
			if schema.Index(ref.Name) != pkCol {
				continue
			}
			keys := make([]btree.Key, 0, len(t.List))
			allConst := true
			for _, item := range t.List {
				v, ok := constValue(item, args)
				if !ok {
					allConst = false
					break
				}
				// A repeated value must not fetch its row twice.
				if !containsKey(keys, v) {
					keys = append(keys, btree.Key{v})
				}
			}
			if allConst {
				return accessPlan{kind: accessPKPoint, points: keys}
			}
		case *sqlparser.BetweenExpr:
			if t.Not {
				continue
			}
			ref, ok := t.E.(*sqlparser.ColumnRef)
			if !ok || !refersToTable(ref, names, schema) || schema.Index(ref.Name) != pkCol {
				continue
			}
			lov, ok1 := constValue(t.Lo, args)
			hiv, ok2 := constValue(t.Hi, args)
			if ok1 && ok2 {
				if lo == nil || sqltypes.Compare(lov, *lo) > 0 {
					lo = &lov
				}
				if hi == nil || sqltypes.Compare(hiv, *hi) < 0 {
					hi = &hiv
				}
			}
		}
	}
	if lo != nil || hi != nil {
		rp := accessPlan{kind: accessPKRange}
		if lo != nil {
			rp.lo = btree.Key{*lo}
		}
		if hi != nil {
			rp.hi = btree.Key{*hi}
		}
		return rp
	}
	return plan
}

// containsKey reports whether a single-column key equal to v is in keys.
func containsKey(keys []btree.Key, v sqltypes.Value) bool {
	for _, k := range keys {
		if sqltypes.Compare(k[0], v) == 0 {
			return true
		}
	}
	return false
}

// extractColCmp matches "col op const" or "const op col" (with the
// operator flipped) against the given table.
func extractColCmp(b *sqlparser.BinaryExpr, names []string, schema sqltypes.Schema, args []sqltypes.Value) (*sqlparser.ColumnRef, sqltypes.Value, sqlparser.BinOp, bool) {
	switch b.Op {
	case sqlparser.OpEQ, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
	default:
		return nil, sqltypes.Null, 0, false
	}
	if ref, ok := b.L.(*sqlparser.ColumnRef); ok && refersToTable(ref, names, schema) {
		if v, ok := constValue(b.R, args); ok {
			return ref, v, b.Op, true
		}
	}
	if ref, ok := b.R.(*sqlparser.ColumnRef); ok && refersToTable(ref, names, schema) {
		if v, ok := constValue(b.L, args); ok {
			return ref, v, flipOp(b.Op), true
		}
	}
	return nil, sqltypes.Null, 0, false
}

func flipOp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLT:
		return sqlparser.OpGT
	case sqlparser.OpLE:
		return sqlparser.OpGE
	case sqlparser.OpGT:
		return sqlparser.OpLT
	case sqlparser.OpGE:
		return sqlparser.OpLE
	default:
		return op
	}
}

// fetch runs the access plan and returns matching entries. Exclusive range
// bounds and all residual predicates are re-checked by the caller.
func fetch(tbl *storage.Table, txID int64, plan accessPlan) []storage.ScanEntry {
	var out []storage.ScanEntry
	switch plan.kind {
	case accessPKPoint:
		for _, key := range plan.points {
			if se, ok := tbl.PKGet(txID, key); ok {
				out = append(out, se)
			}
		}
	case accessPKRange:
		tbl.PKRange(txID, plan.lo, plan.hi, func(se storage.ScanEntry) bool {
			out = append(out, se)
			return true
		})
	case accessIndex:
		seen := map[int64]struct{}{}
		for _, key := range plan.points {
			tbl.IndexRange(txID, plan.index, key, key, func(se storage.ScanEntry) bool {
				if _, dup := seen[se.RowID]; !dup {
					seen[se.RowID] = struct{}{}
					out = append(out, se)
				}
				return true
			})
		}
	default:
		tbl.Scan(txID, func(se storage.ScanEntry) bool {
			out = append(out, se)
			return true
		})
	}
	return out
}

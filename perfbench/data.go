package main

import (
	"fmt"
	"strings"
)

// rowGen derives every sbtest row from the seed alone, so answer checks
// recompute expected values on demand instead of keeping a copy of the
// data set.
type rowGen struct {
	seed uint64
	rows int
}

const letters = "abcdefghijklmnopqrstuvwxyz0123456789-"

func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g rowGen) state(id int64, stream uint64) uint64 {
	x := g.seed*0x9E3779B97F4A7C15 ^ uint64(id)<<8 ^ stream
	splitmix(&x)
	return x
}

// k is the indexed column, uniform in [1, rows] like sysbench's.
func (g rowGen) k(id int64) int64 {
	x := g.state(id, 1)
	return int64(splitmix(&x)%uint64(g.rows)) + 1
}

func (g rowGen) text(id int64, stream uint64, n int) string {
	x := g.state(id, stream)
	var b strings.Builder
	b.Grow(n)
	var r uint64
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			r = splitmix(&x)
		}
		b.WriteByte(letters[r%uint64(len(letters))])
		r /= uint64(len(letters))
	}
	return b.String()
}

// c is sysbench's 119-character column; pad the 59-character one.
func (g rowGen) c(id int64) string   { return g.text(id, 2, 119) }
func (g rowGen) pad(id int64) string { return g.text(id, 3, 59) }

// insertBatch renders one literal multi-row INSERT for ids [lo, hi].
func (g rowGen) insertBatch(lo, hi int64) string {
	var b strings.Builder
	b.WriteString("INSERT INTO sbtest (id, k, c, pad) VALUES ")
	for id := lo; id <= hi; id++ {
		if id > lo {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, '%s', '%s')", id, g.k(id), g.c(id), g.pad(id))
	}
	return b.String()
}

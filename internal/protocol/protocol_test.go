package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"shardingsphere/internal/sqltypes"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, FrameHello, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(w, FrameEOF, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	typ, payload, err := ReadFrame(r)
	if err != nil || typ != FrameHello || string(payload) != "hello" {
		t.Fatalf("frame 1: %v %v %q", typ, err, payload)
	}
	typ, payload, err = ReadFrame(r)
	if err != nil || typ != FrameEOF || len(payload) != 0 {
		t.Fatalf("frame 2: %v %v %q", typ, err, payload)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, FrameHello, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}

// TestQueryRoundTrip carries one query through the v2 codec end to end:
// the Prepare+ExecStmt request (bind args of every kind, trace trailer)
// and the Header+RowBatch+EOF response, each over stream-tagged frames.
func TestQueryRoundTrip(t *testing.T) {
	args := []sqltypes.Value{
		sqltypes.NewInt(-42),
		sqltypes.NewFloat(3.14),
		sqltypes.NewString("it's"),
		sqltypes.Null,
		sqltypes.NewBool(true),
	}
	var enc BatchEncoder
	enc.Append(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("a")})
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteFrameV2(w, FramePrepare, 3, EncodePrepare(1, "SELECT * FROM t WHERE a = ?"))
	WriteFrameV2(w, FrameExecStmt, 3, AppendTraceContext(EncodeExecStmt(1, args), TraceContext{ID: 9}))
	WriteFrameV2(w, FrameHeader, 3, EncodeHeader([]string{"a", "b"}))
	WriteFrameV2(w, FrameRowBatch, 3, enc.Payload())
	WriteFrameV2(w, FrameEOF, 3, nil)
	w.Flush()

	r := bufio.NewReader(&buf)
	next := func(want byte) []byte {
		t.Helper()
		typ, stream, payload, err := ReadFrameV2(r, MaxFrame)
		if err != nil || typ != want || stream != 3 {
			t.Fatalf("frame %#x: got %#x stream %d err %v", want, typ, stream, err)
		}
		return payload
	}
	if id, sql, err := DecodePrepare(next(FramePrepare)); err != nil || id != 1 || sql != "SELECT * FROM t WHERE a = ?" {
		t.Fatalf("prepare: %d %q %v", id, sql, err)
	}
	tc, body, err := SplitTraceContext(next(FrameExecStmt))
	if err != nil || tc.ID != 9 || tc.Active() {
		t.Fatalf("trace context: %+v %v", tc, err)
	}
	_, got, err := DecodeExecStmt(body)
	if err != nil || len(got) != len(args) {
		t.Fatalf("exec: %v %v", got, err)
	}
	for i := range args {
		if got[i].Kind != args[i].Kind {
			t.Fatalf("arg %d kind: %v vs %v", i, got[i].Kind, args[i].Kind)
		}
	}
	if got[0].I != -42 || got[1].F != 3.14 || got[2].S != "it's" || !got[3].IsNull() || !got[4].Bool() {
		t.Fatalf("args: %v", got)
	}
	if cols, err := DecodeHeader(next(FrameHeader)); err != nil || len(cols) != 2 {
		t.Fatalf("header: %v %v", cols, err)
	}
	if rows, err := DecodeRowBatch(next(FrameRowBatch), nil); err != nil || len(rows) != 1 || rows[0][1].S != "a" {
		t.Fatalf("rows: %v %v", rows, err)
	}
	next(FrameEOF)
}

func TestOKErrorHeaderRoundTrip(t *testing.T) {
	a, l, err := DecodeOK(EncodeOK(7, 99))
	if err != nil || a != 7 || l != 99 {
		t.Fatalf("ok: %d %d %v", a, l, err)
	}
	msg, err := DecodeError(EncodeError("boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("error: %q %v", msg, err)
	}
	cols, err := DecodeHeader(EncodeHeader([]string{"a", "b"}))
	if err != nil || len(cols) != 2 || cols[1] != "b" {
		t.Fatalf("header: %v %v", cols, err)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		row := sqltypes.Row{}
		for _, v := range ints {
			row = append(row, sqltypes.NewInt(v))
		}
		for _, s := range strs {
			row = append(row, sqltypes.NewString(s))
		}
		row = append(row, sqltypes.Null)
		var enc BatchEncoder
		enc.Append(row)
		rows, err := DecodeRowBatch(enc.Payload(), nil)
		if err != nil || len(rows) != 1 || len(rows[0]) != len(row) {
			return false
		}
		got := rows[0]
		for i := range row {
			if got[i].Kind != row[i].Kind || got[i].I != row[i].I || got[i].S != row[i].S {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedPayloads(t *testing.T) {
	full := EncodeExecStmt(1, []sqltypes.Value{sqltypes.NewString("abc")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeExecStmt(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeRowBatch([]byte{0, 0}, nil); err == nil {
		t.Fatal("short row batch accepted")
	}
	if _, _, err := DecodeOK([]byte{1}); err == nil {
		t.Fatal("short ok accepted")
	}
}

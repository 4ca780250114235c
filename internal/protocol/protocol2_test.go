package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"shardingsphere/internal/sqltypes"
)

func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrameV2(w, FrameExecStmt, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameV2(w, FrameEOF, 0xDEADBEEF, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	typ, stream, payload, err := ReadFrameV2(r, MaxFrame)
	if err != nil || typ != FrameExecStmt || stream != 7 || string(payload) != "hello" {
		t.Fatalf("frame 1: %v %d %v %q", typ, stream, err, payload)
	}
	typ, stream, payload, err = ReadFrameV2(r, MaxFrame)
	if err != nil || typ != FrameEOF || stream != 0xDEADBEEF || len(payload) != 0 {
		t.Fatalf("frame 2: %v %d %v %q", typ, stream, err, payload)
	}
}

func TestReadFrameLimitRejectsOversized(t *testing.T) {
	// A corrupted length prefix claiming 1GB must be rejected before
	// any allocation, with a typed error carrying both sizes.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 1<<30)
	hdr[4] = FrameHello
	_, _, err := ReadFrameLimit(bufio.NewReader(bytes.NewReader(hdr[:])), 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	var tooLarge *FrameTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Size != 1<<30 || tooLarge.Limit != 1<<20 {
		t.Fatalf("typed error: %#v", err)
	}

	// v2 framing enforces the same bound.
	var hdr2 [9]byte
	binary.BigEndian.PutUint32(hdr2[:4], 1<<30)
	hdr2[4] = FrameRowBatch
	_, _, _, err = ReadFrameV2(bufio.NewReader(bytes.NewReader(hdr2[:])), 1<<20)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("v2: want ErrFrameTooLarge, got %v", err)
	}
}

// TestHelloRoundTrip pins the handshake payload at three words: a short
// hello, including the 8-byte form without capability bits, is rejected.
func TestHelloRoundTrip(t *testing.T) {
	hello := EncodeHelloCaps(Version2, MaxFrame, LocalCaps)
	if len(hello) != 12 {
		t.Fatalf("hello is %d bytes, want 12", len(hello))
	}
	for _, short := range [][]byte{{1, 2}, hello[:8], hello[:11]} {
		if _, _, _, err := DecodeHelloCaps(short); err == nil {
			t.Fatalf("%d-byte hello accepted", len(short))
		}
	}
}

func TestPrepareExecStmtRoundTrip(t *testing.T) {
	id, sql, err := DecodePrepare(EncodePrepare(42, "SELECT * FROM t WHERE id = ?"))
	if err != nil || id != 42 || sql != "SELECT * FROM t WHERE id = ?" {
		t.Fatalf("prepare: %d %q %v", id, sql, err)
	}
	args := []sqltypes.Value{sqltypes.NewInt(9), sqltypes.NewString("x"), sqltypes.Null}
	id, got, err := DecodeExecStmt(EncodeExecStmt(42, args))
	if err != nil || id != 42 || len(got) != 3 {
		t.Fatalf("execstmt: %d %v %v", id, got, err)
	}
	if got[0].I != 9 || got[1].S != "x" || !got[2].IsNull() {
		t.Fatalf("execstmt args: %v", got)
	}
}

func TestRowBatchRoundTrip(t *testing.T) {
	var enc BatchEncoder
	want := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("a")},
		{sqltypes.NewInt(2), sqltypes.Null},
		{}, // empty row survives
		{sqltypes.NewFloat(2.5), sqltypes.NewBool(true), sqltypes.NewString("z")},
	}
	for _, r := range want {
		enc.Append(r)
	}
	if enc.Rows() != len(want) {
		t.Fatalf("rows: %d", enc.Rows())
	}
	got, err := DecodeRowBatch(enc.Payload(), nil)
	if err != nil || len(got) != len(want) {
		t.Fatalf("decode: %v %v", got, err)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %v", i, got[i])
		}
		for j := range want[i] {
			if got[i][j].Kind != want[i][j].Kind {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}

	// Reset reuses the buffer.
	enc.Reset()
	if enc.Rows() != 0 || enc.Size() != 0 {
		t.Fatalf("reset: rows=%d size=%d", enc.Rows(), enc.Size())
	}
	enc.Append(sqltypes.Row{sqltypes.NewInt(7)})
	got, err = DecodeRowBatch(enc.Payload(), got[:0])
	if err != nil || len(got) != 1 || got[0][0].I != 7 {
		t.Fatalf("after reset: %v %v", got, err)
	}
}

func TestRowBatchRejectsBogusCounts(t *testing.T) {
	// Claimed row count far beyond what the payload could hold.
	var w writer
	w.u32(1 << 30)
	if _, err := DecodeRowBatch(w.buf, nil); err == nil {
		t.Fatal("bogus row count accepted")
	}
}

func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	WriteFrame(bw, FrameHello, EncodeHelloCaps(Version2, MaxFrame, LocalCaps))
	bw.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x13})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			typ, payload, err := ReadFrameLimit(r, 1<<16)
			if err != nil {
				return // must never panic or allocate past the limit
			}
			// Exercise the payload decoders on whatever came through.
			switch typ {
			case FrameOK:
				DecodeOK(payload)
			case FrameHeader:
				DecodeHeader(payload)
			case FrameRowBatch:
				DecodeRowBatch(payload, nil)
			case FrameHello, FrameHelloAck:
				DecodeHelloCaps(payload)
			case FramePrepare:
				DecodePrepare(payload)
			case FrameExecStmt:
				DecodeExecStmt(payload)
			}
		}
	})
}

// FuzzDecodeRowBatch feeds arbitrary bytes to the row-batch decoder,
// which decodes network input on every query: it must never panic, and
// a batch it accepts must re-encode to one that decodes the same.
func FuzzDecodeRowBatch(f *testing.F) {
	var enc BatchEncoder
	enc.Append(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("x")})
	enc.Append(sqltypes.Row{})
	f.Add(append([]byte(nil), enc.Payload()...))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRowBatch(data, nil)
		if err != nil {
			return
		}
		var enc BatchEncoder
		for _, row := range rows {
			enc.Append(row)
		}
		if len(rows) == 0 {
			return // an empty encoder has no payload to re-decode
		}
		again, err := DecodeRowBatch(enc.Payload(), nil)
		if err != nil || len(again) != len(rows) {
			t.Fatalf("re-decode: %d rows vs %d (%v)", len(again), len(rows), err)
		}
	})
}

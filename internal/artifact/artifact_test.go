package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	e := &Encoder{}
	e.U32(0xdeadbeef)
	e.I64(-42)
	e.Int(7)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.F64(math.Float64frombits(0x7ff8000000000001)) // a specific NaN payload
	e.Bool(true)
	e.Bool(false)
	e.Str("héllo\x00world")
	e.Str("")
	e.F64s([]float64{1.5, -2.25, 0})
	e.F64s(nil)
	e.Bools([]bool{true, false, true})
	e.Bools(nil)

	var buf bytes.Buffer
	if err := e.WriteTo(&buf, 3); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.Int(); v != 7 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.F64(); !math.IsInf(v, -1) {
		t.Fatalf("F64 inf = %v", v)
	}
	if bits := math.Float64bits(d.F64()); bits != 0x7ff8000000000001 {
		t.Fatalf("NaN payload not preserved: %x", bits)
	}
	if !d.Bool() || d.Bool() {
		t.Fatalf("bools scrambled")
	}
	if v := d.Str(); v != "héllo\x00world" {
		t.Fatalf("Str = %q", v)
	}
	if v := d.Str(); v != "" {
		t.Fatalf("empty Str = %q", v)
	}
	if v := d.F64s(); len(v) != 3 || v[0] != 1.5 || v[1] != -2.25 || v[2] != 0 {
		t.Fatalf("F64s = %v", v)
	}
	if v := d.F64s(); v != nil {
		t.Fatalf("nil F64s = %v", v)
	}
	if v := d.Bools(); len(v) != 3 || !v[0] || v[1] || !v[2] {
		t.Fatalf("Bools = %v", v)
	}
	if v := d.Bools(); v != nil {
		t.Fatalf("nil Bools = %v", v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderOverrunAndLeftover(t *testing.T) {
	e := &Encoder{}
	e.U32(1)
	var buf bytes.Buffer
	if err := e.WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Reading past the payload is sticky and malformed.
	d, err := NewDecoder(bytes.NewReader(raw), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.U32()
	if v := d.I64(); v != 0 {
		t.Fatalf("overrun read = %d", v)
	}
	if !errors.Is(d.Err(), ErrMalformed) || !errors.Is(d.Close(), ErrMalformed) {
		t.Fatalf("overrun err = %v", d.Err())
	}

	// Leaving payload bytes unread fails Close.
	d, err = NewDecoder(bytes.NewReader(raw), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(d.Close(), ErrMalformed) {
		t.Fatalf("leftover bytes not reported")
	}
}

func TestDecoderHugeDeclaredLength(t *testing.T) {
	// A corrupt length field must not make the loader allocate gigabytes.
	var buf bytes.Buffer
	buf.Write(magic[:])
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], 1)
	buf.Write(b[:4])
	binary.LittleEndian.PutUint64(b[:], uint64(maxLen)+1)
	buf.Write(b[:])
	if _, err := NewDecoder(&buf, 1); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestVersionCheckedBeforeChecksum(t *testing.T) {
	e := &Encoder{}
	e.U32(5)
	var buf bytes.Buffer
	if err := e.WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Patching the version also breaks the CRC; the loader must still
	// report the version mismatch, which is the actionable error.
	raw[8] = 9
	if _, err := NewDecoder(bytes.NewReader(raw), 2); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestDecoderDeclaredLengthBeyondStream: a 28-byte stream whose header
// declares a 1 GiB payload (within maxLen, so the length check passes) is
// truncated, and finding that out costs about what the stream holds, not
// what it declares.
func TestDecoderDeclaredLengthBeyondStream(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], 1)
	buf.Write(b[:4])
	binary.LittleEndian.PutUint64(b[:], maxLen)
	buf.Write(b[:])
	buf.Write([]byte("8 bytes."))
	raw := buf.Bytes()
	if len(raw) != 28 {
		t.Fatalf("stream is %d bytes, want 28", len(raw))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewDecoder(bytes.NewReader(raw), 1)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a 28-byte stream allocated %d bytes", alloc)
	}
}

// Package artifact is the binary codec underneath persistent model
// artifacts: a little-endian, length-prefixed encoding with a magic
// header, an explicit format version, and a CRC-32 trailer, so a loader
// can tell apart (and report distinctly) a file that is not an artifact,
// an artifact written by an incompatible format revision, a truncated
// download, and bit corruption.
//
// The package deliberately knows nothing about models: each owning
// package (nn, snapshot, dbenv, mscn, qppnet, core) encodes its own state
// through the primitive Encoder/Decoder methods, and core composes the
// sections into one artifact. Encoding is byte-exact: float64s round-trip
// through their IEEE-754 bits, so a loaded model reproduces the saved
// model's predictions bit for bit.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// magic identifies a QCFE artifact stream. Eight bytes, never versioned —
// version compatibility is the explicit version field's job.
var magic = [8]byte{'Q', 'C', 'F', 'E', 'A', 'R', 'T', '\n'}

// Sentinel errors, distinguishable with errors.Is.
var (
	// ErrNotArtifact reports a stream that does not begin with the
	// artifact magic — not a QCFE artifact at all.
	ErrNotArtifact = errors.New("artifact: bad magic (not a QCFE artifact)")
	// ErrVersion reports an artifact written by an incompatible format
	// version.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrTruncated reports a stream that ends before its declared length.
	ErrTruncated = errors.New("artifact: truncated")
	// ErrCorrupt reports a checksum mismatch: the declared length is
	// present but the bytes do not match the recorded CRC-32.
	ErrCorrupt = errors.New("artifact: checksum mismatch (corrupt)")
	// ErrMalformed reports a payload whose internal structure overruns
	// its own bounds (a decode read past the end or left bytes over).
	ErrMalformed = errors.New("artifact: malformed payload")
)

// maxLen bounds the declared payload length a decoder accepts. Model
// artifacts in this repo are a few hundred KB; 1 GB is far beyond any
// legitimate file. Below the bound, memory follows the bytes that arrive,
// never the declared length (NewDecoder).
const maxLen = 1 << 30

// Encoder accumulates a payload. The zero value is ready to use; write
// primitives, then WriteTo to frame and emit the artifact.
type Encoder struct {
	buf bytes.Buffer
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

// I64 appends an int64.
func (e *Encoder) I64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	e.buf.Write(b[:])
}

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 through its IEEE-754 bits.
func (e *Encoder) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	e.buf.Write(b[:])
}

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf.WriteByte(1)
	} else {
		e.buf.WriteByte(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf.WriteString(s)
}

// F64s appends a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Bools appends a length-prefixed []bool.
func (e *Encoder) Bools(v []bool) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// WriteTo frames the accumulated payload — magic, version, payload
// length, payload, CRC-32 over everything before the trailer — and
// writes the artifact to w.
func (e *Encoder) WriteTo(w io.Writer, version uint32) error {
	var head bytes.Buffer
	head.Write(magic[:])
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], version)
	head.Write(b[:4])
	binary.LittleEndian.PutUint64(b[:], uint64(e.buf.Len()))
	head.Write(b[:])

	crc := crc32.NewIEEE()
	crc.Write(head.Bytes())
	crc.Write(e.buf.Bytes())

	if _, err := w.Write(head.Bytes()); err != nil {
		return fmt.Errorf("artifact: write header: %w", err)
	}
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		return fmt.Errorf("artifact: write payload: %w", err)
	}
	binary.LittleEndian.PutUint32(b[:4], crc.Sum32())
	if _, err := w.Write(b[:4]); err != nil {
		return fmt.Errorf("artifact: write checksum: %w", err)
	}
	return nil
}

// Decoder reads a framed artifact payload. Construct with NewDecoder,
// read primitives in write order, then call Close to assert the payload
// was consumed exactly. Read errors are sticky: after the first failure
// every primitive returns its zero value and Err reports the failure.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder reads and validates one artifact from r: magic, version
// (must equal version), declared length (stream must contain exactly
// that many payload bytes), and CRC-32.
func NewDecoder(r io.Reader, version uint32) (*Decoder, error) {
	var head [20]byte // magic(8) + version(4) + length(8)
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: header is %v", ErrTruncated, err)
		}
		return nil, fmt.Errorf("artifact: read header: %w", err)
	}
	if !bytes.Equal(head[:8], magic[:]) {
		return nil, ErrNotArtifact
	}
	got := binary.LittleEndian.Uint32(head[8:12])
	if got != version {
		return nil, fmt.Errorf("%w: artifact has version %d, this build reads version %d", ErrVersion, got, version)
	}
	n := binary.LittleEndian.Uint64(head[12:20])
	if n > maxLen {
		return nil, fmt.Errorf("%w: declared payload length %d exceeds limit", ErrMalformed, n)
	}
	// Read at most the declared length, growing the buffer with the bytes
	// that actually arrive: a header that declares far more than the
	// stream holds costs what the stream holds, not what it declares.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if uint64(len(payload)) < n {
		return nil, fmt.Errorf("%w: payload has %d of %d declared bytes", ErrTruncated, len(payload), n)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum trailer: %v", ErrTruncated, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(head[:])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(tail[:]) {
		return nil, ErrCorrupt
	}
	return &Decoder{data: payload}, nil
}

// fail records the first error and makes it sticky.
func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d of %d", ErrMalformed, what, d.off, len(d.data))
	}
}

// take returns the next n payload bytes.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.data) {
		d.fail(what)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "uint32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 {
	b := d.take(8, "int64")
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 {
	b := d.take(8, "float64")
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	b := d.take(1, "bool")
	return b != nil && b[0] != 0
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

// Count reads a uint32 element count for a sequence whose elements each
// occupy at least minSize payload bytes. A count the rest of the payload
// cannot hold fails the decode with ErrMalformed and reads as 0, so a
// hostile count can never size an allocation beyond the bytes present.
func (d *Decoder) Count(minSize int, what string) int {
	n := int(d.U32())
	if d.err == nil && n > (len(d.data)-d.off)/minSize {
		d.fail(what)
	}
	if d.err != nil {
		return 0
	}
	return n
}

// F64s reads a length-prefixed []float64 (nil when empty).
func (d *Decoder) F64s() []float64 {
	n := d.Count(8, "[]float64")
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Bools reads a length-prefixed []bool (nil when empty).
func (d *Decoder) Bools() []bool {
	n := d.Count(1, "[]bool")
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}

// Err returns the first decode failure, if any.
func (d *Decoder) Err() error { return d.err }

// Close asserts the payload was consumed exactly: no decode failure and
// no unread bytes (leftovers mean the reader and writer disagree about
// the payload structure).
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d unread payload bytes", ErrMalformed, len(d.data)-d.off)
	}
	return nil
}

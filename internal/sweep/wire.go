package sweep

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary wire format for Partial — the compact encoding distributed
// sweeps ship between serve nodes and coordinators. JSON stays the
// compatibility format (and round-trips float64 bit for bit), but on
// wide frontiers the textual floats dominate coordination cost; the
// binary form writes each value as its 8 raw IEEE-754 bits instead.
//
// Layout (all integers little-endian, strings and lists
// length-prefixed with uint32 counts):
//
//	magic "RPP1" (4 bytes: repro partial, version 1)
//	space   string
//	start, end, k  int64
//	kernel  string
//	metrics uint32 count × { name string, minimize uint8 }
//	topk    uint8 present × { count × pointList }
//	frontier pointList
//
// where pointList is uint32 count × { index int64, values: one uint64
// of float bits per metric }. Every field is fixed-width or
// length-prefixed, so decoding is a single validated pass; the decoder
// rejects truncated input, counts that exceed the remaining payload,
// and trailing bytes. Bit-identity is trivial: float bits pass through
// untouched, so Marshal∘Unmarshal is the identity on the merge algebra
// exactly like the JSON path.
//
// The WireWriter/WireReader primitives are exported so the serve layer
// can frame shard requests and responses in the same vocabulary.

// partialMagic tags (and versions) the binary Partial encoding.
const partialMagic = "RPP1"

// WireWriter appends the primitive wire types to a growing buffer.
type WireWriter struct{ buf []byte }

// Grow pre-sizes the buffer for about n more bytes.
func (w *WireWriter) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		next := make([]byte, len(w.buf), len(w.buf)+n)
		copy(next, w.buf)
		w.buf = next
	}
}

// Bytes returns the encoded buffer.
func (w *WireWriter) Bytes() []byte { return w.buf }

// Raw appends bytes verbatim (magic tags).
func (w *WireWriter) Raw(b []byte) { w.buf = append(w.buf, b...) }

func (w *WireWriter) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *WireWriter) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *WireWriter) I64(v int64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *WireWriter) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bool writes a bool as one byte.
func (w *WireWriter) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str writes a uint32 length prefix followed by the raw bytes.
func (w *WireWriter) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// WireReader consumes the primitive wire types with bounds checking;
// the first failure sticks and every later read returns zero values.
type WireReader struct {
	buf []byte
	off int
	err error
}

// NewWireReader wraps data for a decoding pass.
func NewWireReader(data []byte) *WireReader { return &WireReader{buf: data} }

// Fail records a structural error (first one wins).
func (r *WireReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the sticky decode error, if any.
func (r *WireReader) Err() error { return r.err }

// Finish returns the sticky error, or an error if undecoded bytes
// remain — every complete document must consume its input exactly.
func (r *WireReader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("sweep: wire document has %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Take consumes the next n raw bytes.
func (r *WireReader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.Fail("sweep: wire document truncated at offset %d (need %d bytes, have %d)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *WireReader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *WireReader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *WireReader) I64() int64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *WireReader) F64() float64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads a one-byte bool. Any byte other than 0 or 1 is a decode
// error naming its offset, so every accepted frame re-encodes to the
// bytes it was decoded from.
func (r *WireReader) Bool() bool {
	off := r.off
	b := r.U8()
	if b > 1 {
		r.Fail("sweep: wire bool at offset %d is %d, want 0 or 1", off, b)
	}
	return b == 1
}

func (r *WireReader) Str() string {
	n := r.U32()
	return string(r.Take(int(n)))
}

// Count reads a uint32 element count and sanity-checks it against the
// bytes actually remaining (each element needs at least elemSize
// bytes), so corrupt input cannot provoke huge allocations.
func (r *WireReader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err == nil && n*elemSize > len(r.buf)-r.off {
		r.Fail("sweep: wire count %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return 0
	}
	return n
}

// Rest consumes and returns all remaining bytes.
func (r *WireReader) Rest() []byte { return r.Take(len(r.buf) - r.off) }

func writePoints(w *WireWriter, pts []Point, metrics int) {
	w.U32(uint32(len(pts)))
	for _, p := range pts {
		w.I64(int64(p.Index))
		for m := 0; m < metrics; m++ {
			w.F64(p.Values[m])
		}
	}
}

func readPoints(r *WireReader, metrics int) []Point {
	n := r.Count(8 + 8*metrics)
	if r.err != nil || n == 0 {
		return nil
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i].Index = int(r.I64())
		v := make([]float64, metrics)
		for m := range v {
			v[m] = r.F64()
		}
		pts[i].Values = v
	}
	return pts
}

// MarshalBinary encodes the partial in the compact wire format.
func (p *Partial) MarshalBinary() ([]byte, error) {
	w := &WireWriter{}
	w.Grow(256 + len(p.Frontier)*(8+8*len(p.Metrics)))
	w.Raw([]byte(partialMagic))
	w.Str(p.Space)
	w.I64(int64(p.Start))
	w.I64(int64(p.End))
	w.I64(int64(p.K))
	w.Str(p.Kernel)
	w.U32(uint32(len(p.Metrics)))
	for _, m := range p.Metrics {
		w.Str(m.Name)
		w.Bool(m.Minimize)
	}
	if p.TopK != nil {
		if len(p.TopK) != len(p.Metrics) {
			return nil, fmt.Errorf("sweep: partial carries %d leaderboards for %d metrics", len(p.TopK), len(p.Metrics))
		}
		w.U8(1)
		for _, lead := range p.TopK {
			writePoints(w, lead, len(p.Metrics))
		}
	} else {
		w.U8(0)
	}
	writePoints(w, p.Frontier, len(p.Metrics))
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a partial produced by MarshalBinary,
// validating structure as it goes; on error the receiver is left
// unspecified.
func (p *Partial) UnmarshalBinary(data []byte) error {
	r := NewWireReader(data)
	if magic := r.Take(len(partialMagic)); magic == nil || string(magic) != partialMagic {
		return fmt.Errorf("sweep: not a binary partial (bad magic/version)")
	}
	p.Space = r.Str()
	p.Start = int(r.I64())
	p.End = int(r.I64())
	p.K = int(r.I64())
	p.Kernel = r.Str()
	nm := r.Count(5) // per metric: ≥4-byte name prefix + 1 direction byte
	p.Metrics = nil
	for i := 0; i < nm && r.Err() == nil; i++ {
		p.Metrics = append(p.Metrics, MetricInfo{Name: r.Str(), Minimize: r.Bool()})
	}
	p.TopK = nil
	if r.Bool() {
		p.TopK = make([][]Point, 0, nm)
		for i := 0; i < nm && r.Err() == nil; i++ {
			lead := readPoints(r, nm)
			if lead == nil {
				lead = []Point{} // keep "present but empty" distinct from absent
			}
			p.TopK = append(p.TopK, lead)
		}
	}
	p.Frontier = readPoints(r, nm)
	return r.Finish()
}

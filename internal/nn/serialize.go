package nn

import (
	"fmt"

	"repro/internal/artifact"
)

// Encode appends the network's architecture and weights to the artifact
// payload. Gradients and optimizer state are deliberately not persisted:
// an artifact is an inference checkpoint, and continued training starts
// from a fresh optimizer (the same state every freshly constructed model
// begins with).
func (m *MLP) Encode(e *artifact.Encoder) {
	e.U32(uint32(len(m.Layers)))
	for _, l := range m.Layers {
		e.U32(uint32(l.In))
		e.U32(uint32(l.Out))
		e.F64s(l.W)
		e.F64s(l.B)
	}
}

// DecodeMLP reads a network written by Encode.
func DecodeMLP(d *artifact.Decoder) (*MLP, error) {
	// A layer is at least four 4-byte words: its two widths and the
	// lengths of W and B.
	n := d.Count(16, "layer count")
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("nn: artifact MLP has %d layers", n)
	}
	m := &MLP{Layers: make([]*Linear, 0, n)}
	for i := 0; i < n; i++ {
		in, out := int(d.U32()), int(d.U32())
		w, b := d.F64s(), d.F64s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if in < 1 || out < 1 || len(w) != in*out || len(b) != out {
			return nil, fmt.Errorf("nn: artifact layer %d inconsistent: in=%d out=%d |W|=%d |B|=%d", i, in, out, len(w), len(b))
		}
		if i > 0 && in != m.Layers[i-1].Out {
			return nil, fmt.Errorf("nn: artifact layer %d input %d does not match previous output %d", i, in, m.Layers[i-1].Out)
		}
		m.Layers = append(m.Layers, &Linear{
			In: in, Out: out,
			W:  w,
			B:  b,
			GW: make([]float64, len(w)),
			GB: make([]float64, len(b)),
		})
	}
	return m, nil
}

package qppnet

import (
	"fmt"
	"math/rand"

	"repro/internal/artifact"
	"repro/internal/encoding"
	"repro/internal/nn"
	"repro/internal/planner"
)

// Encode appends the model's hyperparameters and every per-operator
// subnetwork's weights to the artifact payload, in AllOpTypes order so
// the layout is independent of map iteration order.
func (m *Model) Encode(e *artifact.Encoder) {
	e.Int(m.Hidden)
	e.Int(m.OutVec)
	e.Int(m.BatchSize)
	e.U32(uint32(planner.NumOpTypes))
	for _, op := range planner.AllOpTypes() {
		m.Nets[op].Encode(e)
	}
}

// Decode reads a model written by Encode and binds it to f. Inference is
// bit-identical to the saved model; the optimizer and minibatch sampler
// start fresh (seeded by seed), like a newly constructed model.
func Decode(d *artifact.Decoder, f *encoding.Featurizer, seed int64) (*Model, error) {
	m := &Model{
		F:         f,
		Hidden:    d.Int(),
		OutVec:    d.Int(),
		BatchSize: d.Int(),
		Nets:      make(map[planner.OpType]*nn.MLP, int(planner.NumOpTypes)),
		opt:       nn.NewAdam(defaultLR),
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
	}
	nOps := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nOps != int(planner.NumOpTypes) {
		return nil, fmt.Errorf("qppnet: artifact has %d operator networks, this build has %d operator types", nOps, int(planner.NumOpTypes))
	}
	in := f.Dim() + m.OutVec
	for _, op := range planner.AllOpTypes() {
		net, err := nn.DecodeMLP(d)
		if err != nil {
			return nil, fmt.Errorf("qppnet: %v network: %w", op, err)
		}
		if net.InDim() != in {
			return nil, fmt.Errorf("qppnet: artifact %v network expects %d inputs, featurizer+outvec produce %d", op, net.InDim(), in)
		}
		if net.OutDim() != m.OutVec {
			return nil, fmt.Errorf("qppnet: artifact %v network emits %d outputs, want %d", op, net.OutDim(), m.OutVec)
		}
		m.Nets[op] = net
	}
	return m, nil
}

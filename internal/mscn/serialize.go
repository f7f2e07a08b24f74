package mscn

import (
	"fmt"
	"math/rand"

	"repro/internal/artifact"
	"repro/internal/encoding"
	"repro/internal/nn"
)

// Encode appends the model's weights and batch configuration to the
// artifact payload. The featurizer is not part of the model section — it
// is shared pipeline state and is persisted once by the artifact's owner.
func (m *Model) Encode(e *artifact.Encoder) {
	e.Int(m.BatchSize)
	m.SetNet.Encode(e)
	m.OutNet.Encode(e)
}

// Decode reads a model written by Encode and binds it to f. The loaded
// model's inference is bit-identical to the saved one's; the optimizer
// and minibatch sampler start fresh (seeded by seed), exactly like a
// newly constructed model, so continued training is supported but not a
// byte-level continuation of the original run.
func Decode(d *artifact.Decoder, f *encoding.Featurizer, seed int64) (*Model, error) {
	bs := d.Int()
	set, err := nn.DecodeMLP(d)
	if err != nil {
		return nil, fmt.Errorf("mscn: set network: %w", err)
	}
	out, err := nn.DecodeMLP(d)
	if err != nil {
		return nil, fmt.Errorf("mscn: merge network: %w", err)
	}
	if set.InDim() != f.Dim() {
		return nil, fmt.Errorf("mscn: artifact set network expects %d features, featurizer produces %d", set.InDim(), f.Dim())
	}
	if out.InDim() != set.OutDim() {
		return nil, fmt.Errorf("mscn: artifact merge network input %d does not match embedding width %d", out.InDim(), set.OutDim())
	}
	return &Model{
		F:         f,
		SetNet:    set,
		OutNet:    out,
		BatchSize: bs,
		opt:       nn.NewAdam(defaultLR),
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
	}, nil
}

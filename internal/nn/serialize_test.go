package nn_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/nn"
)

// TestDecodeMLPHostileLayerCount: a layer count of 2^31−1 in a few bytes of
// payload fails with ErrMalformed instead of sizing the layer slice.
func TestDecodeMLPHostileLayerCount(t *testing.T) {
	e := &artifact.Encoder{}
	e.U32(1<<31 - 1)
	e.U32(1)
	e.U32(1)
	var buf bytes.Buffer
	if err := e.WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	d, err := artifact.NewDecoder(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = nn.DecodeMLP(d)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, artifact.ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the layer count allocated %d bytes", alloc)
	}
}

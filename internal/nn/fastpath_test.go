package nn

import (
	"math"
	"math/rand"
	"testing"

	"insightalign/internal/tensor"
)

// TestStepFlatMatchesForward drives the tape-free StepFlat over B
// independent token streams and demands, at every position, that each
// sequence's output row be bit-identical to the last row of the tape
// DecoderLayer.Forward over that sequence's whole prefix — for both the
// S==1 constant-folded cross-attention and the general S>1 path.
func TestStepFlatMatchesForward(t *testing.T) {
	for _, s := range []int{1, 3} {
		const (
			dim    = 16
			hidden = 32
			b      = 3
			maxLen = 9
		)
		rng := rand.New(rand.NewSource(int64(40 + s)))
		d := NewDecoderLayer(rng, dim, hidden)

		mem := tensor.New(s, dim)
		for i := range mem.Data {
			mem.Data[i] = rng.NormFloat64()
		}

		// Flat path: flattened layer, fused QKV, pooled-style scratch and
		// per-sequence flat KV caches.
		fl := FlattenDecoderLayer(d)
		fc := fl.PrecomputeCrossFlat(mem.Data, s)
		qkv := fl.FuseQKV()
		sc := NewFlatScratch(b, dim, hidden, s, maxLen)
		kc := make([][]float64, b)
		vc := make([][]float64, b)
		for i := range kc {
			kc[i] = make([]float64, maxLen*dim)
			vc[i] = make([]float64, maxLen*dim)
		}

		if (s == 1) != (fc.Out != nil) {
			t.Fatalf("S=%d: cross fold Out presence = %v", s, fc.Out != nil)
		}

		// prefix[i] accumulates sequence i's input rows for the tape reference.
		prefix := make([][]float64, b)
		for step := 0; step < maxLen; step++ {
			h := make([]float64, b*dim)
			for i := range h {
				h[i] = rng.NormFloat64()
			}
			for i := range prefix {
				prefix[i] = append(prefix[i], h[i*dim:(i+1)*dim]...)
			}

			fl.StepFlat(h, b, qkv, fc, kc, vc, step, sc)

			tensor.NoGrad(func() {
				for i := range prefix {
					full := d.Forward(tensor.FromSlice(prefix[i], step+1, dim), mem)
					want := full.Data[step*dim:]
					got := h[i*dim : (i+1)*dim]
					for j := range got {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("S=%d step %d seq %d: element %d = %x, want %x",
								s, step, i, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
						}
					}
				}
			})
		}
	}
}

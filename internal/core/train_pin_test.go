package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// Pinned SHA-256 digests of the trained parameters below. They were recorded
// before the tape's MatMul moved onto the SIMD kernels, so any change to the
// training path's floating-point schedule — a reordered accumulation, a
// dropped zero-skip, a fused multiply-add — fails this test, not just the
// perfbench goldens.
const (
	pinnedSerialParamsSHA  = "6620d93d76bb6cfc5d2145a02c2187580ba296d3510b44f2b0e4d689c5490baa"
	pinnedBatchedParamsSHA = "be262e1b76b215cc5d81ba80f8e8bf1477c52dd3aa0fed920476c19f92d6ff0a"
)

// paramsDigest hashes the IEEE-754 bits of every parameter, in Params order.
func paramsDigest(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAlignmentTrainParamsPinned trains the paper-sized decoder (dim 32,
// FF 64) with the MDPO loss on a short seeded schedule — once with
// Algorithm 1's per-pair updates and once with minibatch updates — and
// requires the resulting parameters to match the pinned digests bit for bit.
func TestAlignmentTrainParamsPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		batchSize int
		want      string
	}{
		{"serial", 0, pinnedSerialParamsSHA},
		{"batched", 8, pinnedBatchedParamsSHA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pts := syntheticPoints(rand.New(rand.NewSource(5)), 4, 10)
			opt := DefaultTrainOptions()
			opt.Loss = LossMDPO
			opt.Epochs = 2
			opt.MaxPairsPerDesign = 16
			opt.LR = 3e-3
			opt.BatchSize = tc.batchSize
			opt.Workers = 2
			opt.Seed = 9
			if _, err := m.AlignmentTrain(pts, opt); err != nil {
				t.Fatal(err)
			}
			if got := paramsDigest(m); got != tc.want {
				t.Fatalf("trained parameter digest %s, want %s", got, tc.want)
			}
		})
	}
}

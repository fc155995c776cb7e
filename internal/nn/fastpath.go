package nn

import (
	"math"

	"insightalign/internal/tensor"
)

// Inference fast path: flattened, tape-free views of the decoder layers.
//
// A Flat* structure aliases the Data buffers of the trained parameters (no
// copies — Adam and LoadParams both mutate parameter Data in place, so a
// flattened view stays current) and drives the tensor package's flat
// kernels instead of the tape-building ops. Nothing here touches the
// autograd machinery or the NoGrad counter, so a fast-path decode may run
// concurrently with a tape-building training forward in another goroutine
// — the two paths share only read-only parameter Data.
//
// Equivalence contract: the output row StepFlat produces for a sequence is
// bit-identical to the last row of DecoderLayer.Forward over that
// sequence's full prefix (the flat kernels mirror each tape op's
// accumulation order, and the tape ops run on those same kernels), so
// fast-path decoding is bit-exact against the naive full-recompute
// reference. TestStepFlatMatchesForward holds this.

// FlatLinear aliases a Linear's weight and bias Data.
type FlatLinear struct {
	W, B    []float64
	In, Out int
}

// FlattenLinear returns a flat view of l.
func FlattenLinear(l *Linear) FlatLinear {
	in, out := l.W.Dims()
	return FlatLinear{W: l.W.Data, B: l.B.Data, In: in, Out: out}
}

// Into computes dst = x·W + B for x of shape (m, In), overwriting dst.
func (fl FlatLinear) Into(dst, x []float64, m int) {
	tensor.LinearInto(dst, x, m, fl.In, fl.W, fl.Out, fl.B)
}

// FlatNorm aliases a LayerNorm's affine parameters.
type FlatNorm struct {
	Gamma, Beta []float64
	Eps         float64
	Dim         int
}

// FlattenNorm returns a flat view of ln.
func FlattenNorm(ln *LayerNorm) FlatNorm {
	_, dim := ln.Gamma.Dims()
	return FlatNorm{Gamma: ln.Gamma.Data, Beta: ln.Beta.Data, Eps: ln.Eps, Dim: dim}
}

// Into computes dst = LayerNorm(x)·γ + β for x of shape (m, Dim).
func (fn FlatNorm) Into(dst, x []float64, m int) {
	tensor.NormAffineInto(dst, x, m, fn.Dim, fn.Eps, fn.Gamma, fn.Beta)
}

// FlatDecoderLayer is the tape-free view of one DecoderLayer.
type FlatDecoderLayer struct {
	SelfQ, SelfK, SelfV, SelfO     FlatLinear
	CrossQ, CrossK, CrossV, CrossO FlatLinear
	Norm1, Norm2, Norm3            FlatNorm
	Dim, Hidden                    int
	FFIn, FFOut                    FlatLinear
	Scale                          float64 // 1/sqrt(Dim), shared by self and cross attention
}

// FlattenDecoderLayer builds the flat view of d. The view aliases d's
// parameter Data and stays valid across in-place parameter updates.
func FlattenDecoderLayer(d *DecoderLayer) *FlatDecoderLayer {
	return &FlatDecoderLayer{
		SelfQ:  FlattenLinear(d.SelfAttn.Q),
		SelfK:  FlattenLinear(d.SelfAttn.K),
		SelfV:  FlattenLinear(d.SelfAttn.V),
		SelfO:  FlattenLinear(d.SelfAttn.O),
		CrossQ: FlattenLinear(d.CrossAttn.Q),
		CrossK: FlattenLinear(d.CrossAttn.K),
		CrossV: FlattenLinear(d.CrossAttn.V),
		CrossO: FlattenLinear(d.CrossAttn.O),
		Norm1:  FlattenNorm(d.Norm1),
		Norm2:  FlattenNorm(d.Norm2),
		Norm3:  FlattenNorm(d.Norm3),
		Dim:    d.SelfAttn.Dim,
		Hidden: d.FF.In.W.Shape()[1],
		FFIn:   FlattenLinear(d.FF.In),
		FFOut:  FlattenLinear(d.FF.Out),
		Scale:  1 / math.Sqrt(float64(d.SelfAttn.Dim)),
	}
}

// FlatCross is the per-session precomputed cross-attention memory
// projection of one layer: keys pre-transposed for the q·Kᵀ matmul, values
// row-major. It is computed once per decode
// session (one projection per request, not one per step) and shared
// read-only by every beam and step.
type FlatCross struct {
	KT []float64 // (Dim, S)
	V  []float64 // (S, Dim)
	S  int

	// Out is the constant-folded cross-attention block output, set only
	// when S == 1: a softmax over a single memory row is identically 1, so
	// the context equals the lone V row for every query and the whole block
	// collapses to the query-independent row V·Wo + bo. Adding Out to each
	// h row is bit-identical to running the full block (exp(0)=1, 1/1=1,
	// and 1·v accumulated from 0 reproduce V exactly), so the fold keeps
	// the equivalence contract while deleting two GEMMs and a softmax from
	// every step.
	Out []float64 // (Dim), nil unless S == 1
}

// PrecomputeCrossFlat projects the (S, Dim) memory through this layer's
// cross key/value heads, as Attention.Forward projects its memory; the key
// transpose is the one Forward takes before its score matmul.
func (fl *FlatDecoderLayer) PrecomputeCrossFlat(memory []float64, s int) *FlatCross {
	dim := fl.Dim
	k := make([]float64, s*dim)
	fc := &FlatCross{KT: make([]float64, dim*s), V: make([]float64, s*dim), S: s}
	fl.CrossK.Into(k, memory, s)
	for r := 0; r < s; r++ {
		for c := 0; c < dim; c++ {
			fc.KT[c*s+r] = k[r*dim+c]
		}
	}
	fl.CrossV.Into(fc.V, memory, s)
	if s == 1 {
		fc.Out = make([]float64, dim)
		fl.CrossO.Into(fc.Out, fc.V, 1)
	}
	return fc
}

// FlatQKV is a per-session fused copy of a layer's self-attention Q/K/V
// projections: one (Dim, 3·Dim) weight matrix with columns [Wq|Wk|Wv] and
// the matching 3·Dim bias, so the three projections of a step run as a
// single GEMM over rows laid out [q|k|v]. Each output column accumulates
// over the same ascending-k order as its unfused twin, so the fusion is
// bit-exact. The weights are copied (not aliased), which is why the fuse
// is per session — within a decode session parameters are stable, and a
// fresh session re-fuses, so in-place training updates between sessions
// are always picked up.
type FlatQKV struct {
	W []float64 // (Dim, 3*Dim)
	B []float64 // (3*Dim)
}

// FuseQKV builds the fused Q/K/V projection copy for this layer.
func (fl *FlatDecoderLayer) FuseQKV() *FlatQKV {
	dim := fl.Dim
	f := &FlatQKV{W: make([]float64, dim*3*dim), B: make([]float64, 3*dim)}
	for r := 0; r < dim; r++ {
		o := r * 3 * dim
		copy(f.W[o:o+dim], fl.SelfQ.W[r*dim:(r+1)*dim])
		copy(f.W[o+dim:o+2*dim], fl.SelfK.W[r*dim:(r+1)*dim])
		copy(f.W[o+2*dim:o+3*dim], fl.SelfV.W[r*dim:(r+1)*dim])
	}
	copy(f.B[:dim], fl.SelfQ.B)
	copy(f.B[dim:2*dim], fl.SelfK.B)
	copy(f.B[2*dim:], fl.SelfV.B)
	return f
}

// FlatScratch holds the per-step scratch of one decode session: every
// buffer a StepFlat pass needs, preallocated once and reused across all
// steps, beams, and (via pooling) sessions.
type FlatScratch struct {
	N1     []float64 // (B, Dim) norm output, reused for all three norms
	QKV    []float64 // (B, 3*Dim) fused self q|k|v projection rows
	Q      []float64 // (B, Dim) cross query projection (general S>1 path)
	Ctx    []float64 // (B, Dim) attention context
	Proj   []float64 // (B, Dim) output projection / residual increment
	Attn   []float64 // (B, S) cross-attention weights
	FFH    []float64 // (B, Hidden) feed-forward hidden activations
	Scores []float64 // (maxLen) self-attention softmax scratch
}

// NewFlatScratch sizes scratch for up to maxB stacked sequences of a
// Dim-wide, Hidden-FF layer attending over S memory rows and up to maxLen
// cached positions.
func NewFlatScratch(maxB, dim, hidden, s, maxLen int) *FlatScratch {
	return &FlatScratch{
		N1:     make([]float64, maxB*dim),
		QKV:    make([]float64, maxB*3*dim),
		Q:      make([]float64, maxB*dim),
		Ctx:    make([]float64, maxB*dim),
		Proj:   make([]float64, maxB*dim),
		Attn:   make([]float64, maxB*s),
		FFH:    make([]float64, maxB*hidden),
		Scores: make([]float64, maxLen),
	}
}

// StepFlat advances the layer by one position for B stacked sequences,
// entirely on flat buffers: h holds the (B, Dim) input rows and is
// overwritten with the output rows; kc[b]/vc[b] are sequence b's flat
// self-attention caches (row r at [r·Dim, (r+1)·Dim)) holding tLen filled
// rows, which gain row tLen. The floating-point schedule mirrors the last
// row of DecoderLayer.Forward: pre-norm self-attention with residual,
// cross-attention over the precomputed memory projection with residual,
// then the GELU feed-forward with residual.
func (fl *FlatDecoderLayer) StepFlat(h []float64, b int, qkv *FlatQKV, cross *FlatCross, kc, vc [][]float64, tLen int, sc *FlatScratch) {
	dim := fl.Dim
	bd := b * dim
	n1 := sc.N1[:bd]
	ctx := sc.Ctx[:bd]

	// h += SelfAttn(Norm1(h)) — one fused [q|k|v] projection GEMM, then
	// per-sequence causal attention against the flat KV caches.
	fl.Norm1.Into(n1, h, b)
	qr := sc.QKV[:b*3*dim]
	tensor.LinearInto(qr, n1, b, dim, qkv.W, 3*dim, qkv.B)
	for i := 0; i < b; i++ {
		r := i * 3 * dim
		tensor.CausalAttendInto(ctx[i*dim:(i+1)*dim], qr[r:r+dim], qr[r+dim:r+2*dim], qr[r+2*dim:r+3*dim],
			kc[i], vc[i], tLen, dim, fl.Scale, sc.Scores)
	}
	fl.StepFlatPost(h, b, ctx, cross, sc)
}

// StepFlatPost finishes a decoder-layer step once the self-attention
// context rows are known: output projection with residual, the
// cross-attention block, and the feed-forward block. Split out so callers
// that obtain q/k/v (and hence ctx) from precomputed tables — see
// core's single-layer token/position tables — share the identical
// floating-point tail with StepFlat.
func (fl *FlatDecoderLayer) StepFlatPost(h []float64, b int, ctx []float64, cross *FlatCross, sc *FlatScratch) {
	dim := fl.Dim
	bd := b * dim
	n1, proj := sc.N1[:bd], sc.Proj[:bd]

	fl.SelfO.Into(proj, ctx, b)
	tensor.AddInPlace(h, proj)

	// h += CrossAttn(Norm2(h)) over the precomputed memory projection.
	// With a single memory row the block output is the precomputed
	// query-independent constant cross.Out (see FlatCross); otherwise run
	// the full attention.
	if cross.Out != nil {
		for i := 0; i < b; i++ {
			tensor.AddInPlace(h[i*dim:(i+1)*dim], cross.Out)
		}
	} else {
		q := sc.Q[:bd]
		fl.Norm2.Into(n1, h, b)
		fl.CrossQ.Into(q, n1, b)
		attn := sc.Attn[:b*cross.S]
		tensor.MatMulInto(attn, q, b, dim, cross.KT, cross.S)
		tensor.ScaleInPlace(attn, fl.Scale)
		tensor.SoftmaxRowsInPlace(attn, b, cross.S)
		tensor.MatMulInto(ctx, attn, b, cross.S, cross.V, dim)
		fl.CrossO.Into(proj, ctx, b)
		tensor.AddInPlace(h, proj)
	}

	// h += FF(Norm3(h)).
	fl.Norm3.Into(n1, h, b)
	ffh := sc.FFH[:b*fl.Hidden]
	fl.FFIn.Into(ffh, n1, b)
	tensor.GELUInto(ffh, ffh)
	fl.FFOut.Into(proj, ffh, b)
	tensor.AddInPlace(h, proj)
}

package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"insightalign/internal/tensor"
)

func TestLinearShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := tensor.Randn(rng, 1, 5, 4)
	y := l.Forward(x)
	if r, c := y.Dims(); r != 5 || c != 3 {
		t.Fatalf("Linear out dims (%d,%d), want (5,3)", r, c)
	}
	rel := tensor.GradCheck(func() *tensor.Tensor { return l.Forward(x).Sum() },
		append(l.Params(), x), 1e-6)
	if rel > 1e-5 {
		t.Fatalf("Linear grad rel err = %g", rel)
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding(rng, 10, 6)
	y := e.Forward([]int{3, 3, 7})
	if r, c := y.Dims(); r != 3 || c != 6 {
		t.Fatalf("Embedding out dims (%d,%d)", r, c)
	}
	for j := 0; j < 6; j++ {
		if y.At(0, j) != y.At(1, j) {
			t.Fatal("same id must give same embedding")
		}
		if y.At(0, j) != e.Table.At(3, j) {
			t.Fatal("embedding must equal table row")
		}
	}
}

func TestLayerNormAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm(8)
	x := tensor.Randn(rng, 2, 4, 8)
	y := ln.Forward(x)
	// With default gamma=1, beta=0 output rows have ~zero mean, unit var.
	for i := 0; i < 4; i++ {
		mu := 0.0
		for j := 0; j < 8; j++ {
			mu += y.At(i, j)
		}
		mu /= 8
		if math.Abs(mu) > 1e-9 {
			t.Fatalf("row %d mean = %g", i, mu)
		}
	}
	w := tensor.Randn(rng, 1, 4, 8).Detach()
	rel := tensor.GradCheck(func() *tensor.Tensor { return ln.Forward(x).Mul(w).Sum() },
		append(ln.Params(), x), 1e-6)
	if rel > 1e-4 {
		t.Fatalf("LayerNorm grad rel err = %g", rel)
	}
}

func TestAttentionCausality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAttention(rng, 8, true)
	x := tensor.Randn(rng, 1, 5, 8).Detach()
	base := a.Forward(x, x)
	// Perturb the last token: earlier outputs must not change.
	x2 := x.Clone()
	for j := 0; j < 8; j++ {
		x2.Set(4, j, x2.At(4, j)+10)
	}
	pert := a.Forward(x2, x2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(base.At(i, j)-pert.At(i, j)) > 1e-9 {
				t.Fatalf("causal attention leaked future info at row %d", i)
			}
		}
	}
	// And the last output should change.
	changed := false
	for j := 0; j < 8; j++ {
		if math.Abs(base.At(4, j)-pert.At(4, j)) > 1e-9 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("perturbing token 4 should change output 4")
	}
}

func TestCrossAttentionSeesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAttention(rng, 8, false)
	x := tensor.Randn(rng, 1, 3, 8).Detach()
	mem1 := tensor.Randn(rng, 1, 1, 8).Detach()
	mem2 := mem1.Clone()
	for j := 0; j < 8; j++ {
		mem2.Set(0, j, mem2.At(0, j)+5)
	}
	y1 := a.Forward(x, mem1)
	y2 := a.Forward(x, mem2)
	diff := 0.0
	for i := range y1.Data {
		diff += math.Abs(y1.Data[i] - y2.Data[i])
	}
	if diff < 1e-9 {
		t.Fatal("cross attention ignores memory")
	}
}

func TestAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewAttention(rng, 4, true)
	x := tensor.Randn(rng, 1, 3, 4)
	rel := tensor.GradCheck(func() *tensor.Tensor { return a.Forward(x, x).Sum() },
		append(a.Params(), x), 1e-6)
	if rel > 1e-4 {
		t.Fatalf("Attention grad rel err = %g", rel)
	}
}

func TestDecoderLayerShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDecoderLayer(rng, 4, 8)
	x := tensor.Randn(rng, 1, 3, 4)
	mem := tensor.Randn(rng, 1, 1, 4)
	y := d.Forward(x, mem)
	if r, c := y.Dims(); r != 3 || c != 4 {
		t.Fatalf("DecoderLayer out dims (%d,%d)", r, c)
	}
	rel := tensor.GradCheck(func() *tensor.Tensor { return d.Forward(x, mem).Sum() },
		append(append(d.Params(), x), mem), 1e-6)
	if rel > 1e-3 {
		t.Fatalf("DecoderLayer grad rel err = %g", rel)
	}
}

func TestPositionalEncodingDistinct(t *testing.T) {
	p := NewPositionalEncoding(40, 32)
	// Any two positions should differ.
	for a := 0; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			diff := 0.0
			for j := 0; j < 32; j++ {
				diff += math.Abs(p.Table.At(a, j) - p.Table.At(b, j))
			}
			if diff < 1e-6 {
				t.Fatalf("positions %d and %d are identical", a, b)
			}
		}
	}
}

func TestPositionalEncodingForward(t *testing.T) {
	p := NewPositionalEncoding(10, 4)
	x := tensor.New(3, 4)
	y := p.Forward(x)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if y.At(i, j) != p.Table.At(i, j) {
				t.Fatal("Forward on zeros should equal the positional table")
			}
		}
	}
	y2 := p.ForwardAt(x, []int{7, 8, 9})
	if y2.At(0, 0) != p.Table.At(7, 0) {
		t.Fatal("ForwardAt wrong position")
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||².
	w := tensor.Param(1, 4)
	copy(w.Data, []float64{5, -3, 2, 8})
	target := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	opt := NewAdam([]*tensor.Tensor{w}, 0.1)
	var first, last float64
	for step := 0; step < 300; step++ {
		opt.ZeroGrad()
		d := w.Sub(target)
		loss := d.Mul(d).Sum()
		loss.Backward()
		opt.Step()
		if step == 0 {
			first = loss.Item()
		}
		last = loss.Item()
	}
	if last > first/1000 {
		t.Fatalf("Adam failed to optimize: first=%g last=%g", first, last)
	}
	if opt.StepCount() != 300 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestAdamClipNorm(t *testing.T) {
	w := tensor.Param(1, 2)
	copy(w.Data, []float64{1e6, -1e6})
	opt := NewAdam([]*tensor.Tensor{w}, 0.01)
	opt.ClipNorm = 1.0
	opt.ZeroGrad()
	w.Mul(w).Sum().Backward()
	if opt.GradNorm() <= 1.0 {
		t.Fatal("test premise: gradient should be huge")
	}
	before := append([]float64(nil), w.Data...)
	opt.Step()
	for i := range w.Data {
		if math.Abs(w.Data[i]-before[i]) > 0.02 {
			t.Fatalf("clipped step moved parameter by %g", w.Data[i]-before[i])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := NewDecoderLayer(rng, 4, 8)
	dst := NewDecoderLayer(rand.New(rand.NewSource(99)), 4, 8)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Data {
			if sp[i].Data[j] != dp[i].Data[j] {
				t.Fatalf("round trip mismatch tensor %d elem %d", i, j)
			}
		}
	}
}

func TestLoadParamsBadMagic(t *testing.T) {
	if err := LoadParams(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), nil); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestLoadParamsSizeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewLinear(rng, 2, 2)
	b := NewLinear(rng, 3, 3)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, b.Params()); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewLinear(rng, 3, 3)
	dst := NewLinear(rand.New(rand.NewSource(11)), 3, 3)
	if err := CopyParams(dst.Params(), src.Params()); err != nil {
		t.Fatal(err)
	}
	if dst.W.At(0, 0) != src.W.At(0, 0) {
		t.Fatal("CopyParams did not copy")
	}
	if err := CopyParams(dst.Params(), src.Params()[:1]); err == nil {
		t.Fatal("expected count mismatch error")
	}
}

func TestCountParamsAndFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLinear(rng, 4, 5)
	if got := CountParams(l); got != 4*5+5 {
		t.Fatalf("CountParams = %d, want 25", got)
	}
	if err := CheckFinite(l); err != nil {
		t.Fatal(err)
	}
	l.W.Data[0] = math.NaN()
	if err := CheckFinite(l); err == nil {
		t.Fatal("expected NaN detection")
	}
}

// TestCausalMaskCached checks mask content and that the same backing slice
// is reused across calls.
func TestCausalMaskCached(t *testing.T) {
	m1 := causalMask(3, 3)
	m2 := causalMask(3, 3)
	if &m1[0] != &m2[0] {
		t.Fatal("causal mask not reused across calls")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			masked := math.IsInf(m1[i*3+j], -1)
			if masked != (j > i) {
				t.Fatalf("mask[%d][%d] masked=%v", i, j, masked)
			}
		}
	}
}

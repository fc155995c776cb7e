package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const gradTol = 1e-5

func TestNewShapes(t *testing.T) {
	a := New(3, 4)
	if r, c := a.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = (%d,%d), want (3,4)", r, c)
	}
	if a.Numel() != 12 {
		t.Fatalf("Numel = %d, want 12", a.Numel())
	}
	v := New(5)
	if r, c := v.Dims(); r != 1 || c != 5 {
		t.Fatalf("1-D Dims = (%d,%d), want (1,5)", r, c)
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape/data mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 7.5)
	if got := a.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g, want 7.5", got)
	}
	if a.Data[5] != 7.5 {
		t.Fatalf("row-major layout broken: %v", a.Data)
	}
}

func TestMatMulForward(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := a.MatMul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-12 {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 3, 4)
	b := Randn(rng, 1, 4, 2)
	rel := GradCheck(func() *Tensor { return a.MatMul(b).Sum() }, []*Tensor{a, b}, 1e-6)
	if rel > gradTol {
		t.Fatalf("MatMul grad rel err = %g", rel)
	}
}

func TestAddSubMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 2, 3)
	b := Randn(rng, 1, 2, 3)
	cases := map[string]func() *Tensor{
		"add": func() *Tensor { return a.Add(b).Sum() },
		"sub": func() *Tensor { return a.Sub(b).Sum() },
		"mul": func() *Tensor { return a.Mul(b).Mean() },
	}
	for name, f := range cases {
		if rel := GradCheck(f, []*Tensor{a, b}, 1e-6); rel > gradTol {
			t.Errorf("%s grad rel err = %g", name, rel)
		}
	}
}

func TestBroadcastRowGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 3, 4)
	v := Randn(rng, 1, 1, 4)
	if rel := GradCheck(func() *Tensor { return a.AddRow(v).Sum() }, []*Tensor{a, v}, 1e-6); rel > gradTol {
		t.Errorf("AddRow grad rel err = %g", rel)
	}
	if rel := GradCheck(func() *Tensor { return a.MulRow(v).Sum() }, []*Tensor{a, v}, 1e-6); rel > gradTol {
		t.Errorf("MulRow grad rel err = %g", rel)
	}
}

func TestUnaryGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 0.8, 2, 5)
	cases := map[string]func() *Tensor{
		"sigmoid":    func() *Tensor { return a.Sigmoid().Sum() },
		"logsigmoid": func() *Tensor { return a.LogSigmoid().Sum() },
		"tanh":       func() *Tensor { return a.Tanh().Sum() },
		"gelu":       func() *Tensor { return a.GELU().Sum() },
		"exp":        func() *Tensor { return a.Exp().Sum() },
		"scale":      func() *Tensor { return a.Scale(-2.5).Sum() },
		"addscalar":  func() *Tensor { return a.AddScalar(3).Mean() },
		"neg":        func() *Tensor { return a.Neg().Sum() },
	}
	for name, f := range cases {
		if rel := GradCheck(f, []*Tensor{a}, 1e-6); rel > gradTol {
			t.Errorf("%s grad rel err = %g", name, rel)
		}
	}
}

func TestReLUForward(t *testing.T) {
	a := FromSlice([]float64{-1, 0, 2}, 3)
	r := a.ReLU()
	want := []float64{0, 0, 2}
	for i := range want {
		if r.Data[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", r.Data, want)
		}
	}
}

func TestLogGrad(t *testing.T) {
	a := Param(2, 2)
	copy(a.Data, []float64{0.5, 1.5, 2.0, 3.0})
	if rel := GradCheck(func() *Tensor { return a.Log().Sum() }, []*Tensor{a}, 1e-7); rel > gradTol {
		t.Errorf("log grad rel err = %g", rel)
	}
}

func TestSoftmaxRowsForward(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 1, 1, 1}, 2, 3)
	s := a.SoftmaxRows(nil)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			sum += s.At(i, j)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %g", i, sum)
		}
	}
	if !(s.At(0, 2) > s.At(0, 1) && s.At(0, 1) > s.At(0, 0)) {
		t.Fatal("softmax not monotone in logits")
	}
	if math.Abs(s.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatal("uniform logits should give uniform softmax")
	}
}

func TestSoftmaxMask(t *testing.T) {
	a := FromSlice([]float64{5, 1, 2}, 1, 3)
	mask := []float64{0, math.Inf(-1), 0}
	s := a.SoftmaxRows(mask)
	if s.At(0, 1) != 0 {
		t.Fatalf("masked entry got probability %g", s.At(0, 1))
	}
	if math.Abs(s.At(0, 0)+s.At(0, 2)-1) > 1e-12 {
		t.Fatal("unmasked probabilities must sum to 1")
	}
}

func TestSoftmaxGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 3, 4)
	w := Randn(rng, 1, 3, 4) // random projection so gradient isn't trivially zero
	f := func() *Tensor { return a.SoftmaxRows(nil).Mul(w.Detach()).Sum() }
	if rel := GradCheck(f, []*Tensor{a}, 1e-6); rel > gradTol {
		t.Errorf("softmax grad rel err = %g", rel)
	}
}

func TestLayerNormForward(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	y := a.LayerNorm(1e-9)
	mu, va := 0.0, 0.0
	for _, v := range y.Data {
		mu += v
	}
	mu /= 4
	for _, v := range y.Data {
		va += (v - mu) * (v - mu)
	}
	va /= 4
	if math.Abs(mu) > 1e-9 || math.Abs(va-1) > 1e-6 {
		t.Fatalf("layernorm mean=%g var=%g", mu, va)
	}
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(rng, 1, 2, 6)
	w := Randn(rng, 1, 2, 6)
	f := func() *Tensor { return a.LayerNorm(1e-6).Mul(w.Detach()).Sum() }
	if rel := GradCheck(f, []*Tensor{a}, 1e-6); rel > 1e-4 {
		t.Errorf("layernorm grad rel err = %g", rel)
	}
}

func TestGatherGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := Randn(rng, 1, 5, 3)
	idx := []int{0, 2, 2, 4}
	f := func() *Tensor { return table.Gather(idx).Sum() }
	if rel := GradCheck(f, []*Tensor{table}, 1e-6); rel > gradTol {
		t.Errorf("gather grad rel err = %g", rel)
	}
	// Repeated index 2 must accumulate gradient twice.
	table.ZeroGrad()
	out := table.Gather(idx).Sum()
	out.Backward()
	if table.Grad[2*3] != 2 {
		t.Fatalf("repeated gather grad = %g, want 2", table.Grad[2*3])
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 2).Gather([]int{3})
}

func TestRowsAndConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Randn(rng, 1, 4, 3)
	r := a.Rows(1, 3)
	if m, n := r.Dims(); m != 2 || n != 3 {
		t.Fatalf("Rows dims (%d,%d)", m, n)
	}
	if r.At(0, 0) != a.At(1, 0) {
		t.Fatal("Rows content wrong")
	}
	b := Randn(rng, 1, 2, 3)
	c := ConcatRows(a, b)
	if m, _ := c.Dims(); m != 6 {
		t.Fatalf("ConcatRows rows = %d, want 6", m)
	}
	f := func() *Tensor { return ConcatRows(a.Rows(0, 2), b).Sum() }
	if rel := GradCheck(f, []*Tensor{a, b}, 1e-6); rel > gradTol {
		t.Errorf("rows+concat grad rel err = %g", rel)
	}
}

func TestTransposeGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(rng, 1, 3, 2)
	w := Randn(rng, 1, 2, 3)
	f := func() *Tensor { return a.Transpose().Mul(w.Detach()).Sum() }
	if rel := GradCheck(f, []*Tensor{a}, 1e-6); rel > gradTol {
		t.Errorf("transpose grad rel err = %g", rel)
	}
}

func TestHingeGrad(t *testing.T) {
	a := Param(1, 4)
	copy(a.Data, []float64{-1, 0.5, 2, -0.2})
	out := a.Hinge().Sum()
	out.Backward()
	want := []float64{0, 1, 1, 0}
	for i := range want {
		if a.Grad[i] != want[i] {
			t.Fatalf("hinge grad = %v, want %v", a.Grad, want)
		}
	}
}

func TestBackwardAccumulatesThroughSharedNode(t *testing.T) {
	a := Param(1, 1)
	a.Data[0] = 3
	// y = a*a + a  =>  dy/da = 2a + 1 = 7
	y := a.Mul(a).Add(a).Sum()
	y.Backward()
	if math.Abs(a.Grad[0]-7) > 1e-12 {
		t.Fatalf("shared-node grad = %g, want 7", a.Grad[0])
	}
}

func TestDetachStopsGradient(t *testing.T) {
	a := Param(1, 2)
	copy(a.Data, []float64{1, 2})
	y := a.Detach().Mul(a.Detach()).Sum()
	if y.requiresGrad {
		t.Fatal("detached graph should not require grad")
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rng := rand.New(rand.NewSource(10))
	Randn(rng, 1, 2, 2).Backward()
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

// Property: softmax output is a probability distribution for any input row.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(x0, x1, x2, x3 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 50)
		}
		a := FromSlice([]float64{clamp(x0), clamp(x1), clamp(x2), clamp(x3)}, 1, 4)
		s := a.SoftmaxRows(nil)
		sum := 0.0
		for _, p := range s.Data {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: logSigmoid(x) == -log(1+exp(-x)) and is always negative.
func TestLogSigmoidProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 200)
		got := logSigmoid(x)
		if got > 0 {
			return false
		}
		if math.Abs(x) < 30 {
			want := -math.Log(1 + math.Exp(-x))
			return math.Abs(got-want) < 1e-9
		}
		return !math.IsNaN(got) && !math.IsInf(got, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 1, m, k).Detach()
		b := Randn(rng, 1, k, n).Detach()
		lhs := a.MatMul(b).Transpose()
		rhs := b.Transpose().MatMul(a.Transpose())
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				t.Fatalf("(AB)ᵀ != BᵀAᵀ at %d", i)
			}
		}
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := Uniform(rng, 0.5, 100)
	for _, v := range u.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("Uniform sample %g out of range", v)
		}
	}
}

func TestL2Norms(t *testing.T) {
	a := Param(1, 2)
	copy(a.Data, []float64{3, 4})
	if a.L2Norm() != 5 {
		t.Fatalf("L2Norm = %g", a.L2Norm())
	}
	a.Mul(a).Sum().Backward()
	if a.GradL2Norm() == 0 {
		t.Fatal("GradL2Norm should be nonzero after backward")
	}
}

func TestNoGradSuppressesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	w := Randn(rng, 1, 2, 2)
	var out *Tensor
	NoGrad(func() {
		out = w.MatMul(w).Sum()
	})
	if out.RequiresGrad() {
		t.Fatal("NoGrad output should not require grad")
	}
	// Values still computed correctly.
	ref := w.MatMul(w).Sum()
	if out.Item() != ref.Item() {
		t.Fatalf("NoGrad forward differs: %g vs %g", out.Item(), ref.Item())
	}
	// Tape recording restored after the block.
	if !ref.RequiresGrad() {
		t.Fatal("grad recording not restored after NoGrad")
	}
	ref.Backward()
	if w.GradL2Norm() == 0 {
		t.Fatal("backward after NoGrad block should work normally")
	}
}

func TestNoGradNested(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w := Randn(rng, 1, 2, 2)
	NoGrad(func() {
		NoGrad(func() {
			if w.Add(w).RequiresGrad() {
				t.Error("inner NoGrad leaked grads")
			}
		})
		if w.Add(w).RequiresGrad() {
			t.Error("outer NoGrad cancelled by inner exit")
		}
	})
}

// TestNoGradNests covers the counter semantics: nested and sequential
// NoGrad blocks leave recording enabled afterwards.
func TestNoGradNests(t *testing.T) {
	w := Param(2, 2)
	NoGrad(func() {
		NoGrad(func() {
			if out := w.MatMul(FromSlice([]float64{1, 0, 0, 1}, 2, 2)); out.RequiresGrad() {
				t.Fatal("grad recorded inside nested NoGrad")
			}
		})
		if out := w.MatMul(FromSlice([]float64{1, 0, 0, 1}, 2, 2)); out.RequiresGrad() {
			t.Fatal("grad recorded after inner NoGrad exited")
		}
	})
	if out := w.MatMul(FromSlice([]float64{1, 0, 0, 1}, 2, 2)); !out.RequiresGrad() {
		t.Fatal("grad disabled after NoGrad exited")
	}
}

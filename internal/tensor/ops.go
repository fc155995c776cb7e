package tensor

import (
	"fmt"
	"math"
)

// MatMul returns a·b for a of shape (m, k) and b of shape (k, n).
func (a *Tensor) MatMul(b *Tensor) *Tensor {
	m, k := a.Dims()
	k2, n := b.Dims()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%d,%d)x(%d,%d)", m, k, k2, n))
	}
	out := newResult([]int{m, n}, a, b)
	MatMulInto(out.Data, a.Data, m, k, b.Data, n)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				MatMulGradAInto(a.Grad, out.Grad, m, n, b.Data, k)
			}
			if b.requiresGrad {
				b.ensureGrad()
				MatMulGradBInto(b.Grad, a.Data, m, k, out.Grad, n)
			}
		}
	}
	return out
}

// Add returns the elementwise sum of two same-shaped tensors.
func (a *Tensor) Add(b *Tensor) *Tensor {
	if !sameShape(a, b) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := newResult(a.shape, a, b)
	copy(out.Data, a.Data)
	AddInPlace(out.Data, b.Data)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				addTo(a.Grad, out.Grad)
			}
			if b.requiresGrad {
				b.ensureGrad()
				addTo(b.Grad, out.Grad)
			}
		}
	}
	return out
}

// Sub returns a - b elementwise.
func (a *Tensor) Sub(b *Tensor) *Tensor {
	if !sameShape(a, b) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := newResult(a.shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i, g := range out.Grad {
					a.Grad[i] += g
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i, g := range out.Grad {
					b.Grad[i] -= g
				}
			}
		}
	}
	return out
}

// Mul returns the elementwise (Hadamard) product.
func (a *Tensor) Mul(b *Tensor) *Tensor {
	if !sameShape(a, b) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := newResult(a.shape, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i, g := range out.Grad {
					a.Grad[i] += g * b.Data[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i, g := range out.Grad {
					b.Grad[i] += g * a.Data[i]
				}
			}
		}
	}
	return out
}

// AddRow broadcasts a row vector v of shape (1, n) or (n) over every row of a.
func (a *Tensor) AddRow(v *Tensor) *Tensor {
	m, n := a.Dims()
	vr, vc := v.Dims()
	if vr != 1 || vc != n {
		panic(fmt.Sprintf("tensor: AddRow shape mismatch (%d,%d) + (%d,%d)", m, n, vr, vc))
	}
	out := newResult(a.shape, a, v)
	copy(out.Data, a.Data)
	AddBiasInto(out.Data, m, n, v.Data)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				addTo(a.Grad, out.Grad)
			}
			if v.requiresGrad {
				// One row add per output row, ascending: per element the
				// same ascending-i accumulation as a column sum.
				v.ensureGrad()
				for i := 0; i < m; i++ {
					addTo(v.Grad, out.Grad[i*n:(i+1)*n])
				}
			}
		}
	}
	return out
}

// MulRow broadcasts an elementwise product with row vector v over every row.
func (a *Tensor) MulRow(v *Tensor) *Tensor {
	m, n := a.Dims()
	vr, vc := v.Dims()
	if vr != 1 || vc != n {
		panic(fmt.Sprintf("tensor: MulRow shape mismatch (%d,%d) * (%d,%d)", m, n, vr, vc))
	}
	out := newResult(a.shape, a, v)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[i*n+j] = a.Data[i*n+j] * v.Data[j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						a.Grad[i*n+j] += out.Grad[i*n+j] * v.Data[j]
					}
				}
			}
			if v.requiresGrad {
				v.ensureGrad()
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						v.Grad[j] += out.Grad[i*n+j] * a.Data[i*n+j]
					}
				}
			}
		}
	}
	return out
}

// Scale multiplies every element by the constant s.
func (a *Tensor) Scale(s float64) *Tensor {
	out := newResult(a.shape, a)
	copy(out.Data, a.Data)
	ScaleInPlace(out.Data, s)
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			axpy1(a.Grad, out.Grad, s)
		}
	}
	return out
}

// AddScalar adds the constant s to every element.
func (a *Tensor) AddScalar(s float64) *Tensor {
	out := newResult(a.shape, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + s
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Neg returns -a.
func (a *Tensor) Neg() *Tensor { return a.Scale(-1) }

// unary builds an elementwise op from forward f and derivative df(x, y)=dy/dx.
func (a *Tensor) unary(f func(float64) float64, df func(x, y float64) float64) *Tensor {
	out := newResult(a.shape, a)
	for i, x := range a.Data {
		out.Data[i] = f(x)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * df(a.Data[i], out.Data[i])
			}
		}
	}
	return out
}

// Sigmoid applies the logistic function elementwise.
func (a *Tensor) Sigmoid() *Tensor {
	return a.unary(sigmoid, func(_, y float64) float64 { return y * (1 - y) })
}

// LogSigmoid applies log σ(x) elementwise with a numerically stable form.
func (a *Tensor) LogSigmoid() *Tensor {
	return a.unary(logSigmoid, func(x, _ float64) float64 { return 1 - sigmoid(x) })
}

// Tanh applies the hyperbolic tangent elementwise.
func (a *Tensor) Tanh() *Tensor {
	return a.unary(math.Tanh, func(_, y float64) float64 { return 1 - y*y })
}

// ReLU applies max(0, x) elementwise.
func (a *Tensor) ReLU() *Tensor {
	return a.unary(
		func(x float64) float64 { return math.Max(0, x) },
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// GELU applies the tanh approximation of the Gaussian error linear unit.
func (a *Tensor) GELU() *Tensor {
	const c = 0.7978845608028654 // sqrt(2/pi)
	f := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	df := func(x, _ float64) float64 {
		inner := c * (x + 0.044715*x*x*x)
		t := math.Tanh(inner)
		dinner := c * (1 + 3*0.044715*x*x)
		return 0.5*(1+t) + 0.5*x*(1-t*t)*dinner
	}
	return a.unary(f, df)
}

// Exp applies e^x elementwise.
func (a *Tensor) Exp() *Tensor {
	return a.unary(math.Exp, func(_, y float64) float64 { return y })
}

// Log applies the natural logarithm elementwise.
func (a *Tensor) Log() *Tensor {
	return a.unary(math.Log, func(x, _ float64) float64 { return 1 / x })
}

// Hinge applies max(0, x) elementwise using the subgradient 1{x>0}.
// It is the outer clamp of the margin-based DPO loss (Eq. 2 of the paper).
func (a *Tensor) Hinge() *Tensor { return a.ReLU() }

// SoftmaxRows applies a numerically stable softmax independently to each row.
// If mask is non-nil it must have the same shape; entries where mask is
// negative infinity are excluded (used for causal attention).
func (a *Tensor) SoftmaxRows(mask []float64) *Tensor {
	m, n := a.Dims()
	if mask != nil && len(mask) != m*n {
		panic("tensor: SoftmaxRows mask length mismatch")
	}
	out := newResult(a.shape, a)
	copy(out.Data, a.Data)
	if mask != nil {
		addTo(out.Data, mask)
	}
	SoftmaxRowsInPlace(out.Data, m, n)
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < m; i++ {
				orow := out.Data[i*n : (i+1)*n]
				grow := out.Grad[i*n : (i+1)*n]
				dot := 0.0
				for j := range orow {
					dot += grow[j] * orow[j]
				}
				for j := range orow {
					a.Grad[i*n+j] += orow[j] * (grow[j] - dot)
				}
			}
		}
	}
	return out
}

// Sum reduces all elements to a scalar.
func (a *Tensor) Sum() *Tensor {
	out := newResult([]int{1}, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			g := out.Grad[0]
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Mean reduces all elements to their scalar mean.
func (a *Tensor) Mean() *Tensor {
	n := float64(len(a.Data))
	return a.Sum().Scale(1 / n)
}

// Transpose returns the 2-D transpose.
func (a *Tensor) Transpose() *Tensor {
	m, n := a.Dims()
	out := newResult([]int{n, m}, a)
	transposeInto(out.Data, a.Data, m, n)
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					a.Grad[i*n+j] += out.Grad[j*m+i]
				}
			}
		}
	}
	return out
}

// Gather selects rows of a by index, producing shape (len(idx), cols).
// It implements embedding lookup; backward scatter-adds into the table.
func (a *Tensor) Gather(idx []int) *Tensor {
	m, n := a.Dims()
	out := newResult([]int{len(idx), n}, a)
	for i, id := range idx {
		if id < 0 || id >= m {
			panic(fmt.Sprintf("tensor: Gather index %d out of range [0,%d)", id, m))
		}
		copy(out.Data[i*n:(i+1)*n], a.Data[id*n:(id+1)*n])
	}
	if out.requiresGrad {
		ids := append([]int(nil), idx...)
		out.backward = func() {
			a.ensureGrad()
			for i, id := range ids {
				for j := 0; j < n; j++ {
					a.Grad[id*n+j] += out.Grad[i*n+j]
				}
			}
		}
	}
	return out
}

// Rows returns the sub-tensor of rows [from, to).
func (a *Tensor) Rows(from, to int) *Tensor {
	m, n := a.Dims()
	if from < 0 || to > m || from >= to {
		panic(fmt.Sprintf("tensor: Rows[%d:%d) out of range for %d rows", from, to, m))
	}
	out := newResult([]int{to - from, n}, a)
	copy(out.Data, a.Data[from*n:to*n])
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < (to-from)*n; i++ {
				a.Grad[from*n+i] += out.Grad[i]
			}
		}
	}
	return out
}

// ConcatRows stacks tensors with equal column counts vertically.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	_, n := parts[0].Dims()
	rows := 0
	for _, p := range parts {
		pm, pn := p.Dims()
		if pn != n {
			panic("tensor: ConcatRows column mismatch")
		}
		rows += pm
	}
	out := newResult([]int{rows, n}, parts...)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:off+len(p.Data)], p.Data)
		off += len(p.Data)
	}
	if out.requiresGrad {
		out.backward = func() {
			off := 0
			for _, p := range parts {
				if p.requiresGrad {
					p.ensureGrad()
					for i := range p.Data {
						p.Grad[i] += out.Grad[off+i]
					}
				}
				off += len(p.Data)
			}
		}
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance with epsilon
// eps. Affine scale/shift are applied separately (see nn.LayerNorm).
func (a *Tensor) LayerNorm(eps float64) *Tensor {
	m, n := a.Dims()
	out := newResult(a.shape, a)
	invStds := make([]float64, m)
	for i := 0; i < m; i++ {
		invStds[i] = normRow(out.Data[i*n:(i+1)*n], a.Data[i*n:(i+1)*n], eps)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			nf := float64(n)
			for i := 0; i < m; i++ {
				y := out.Data[i*n : (i+1)*n]
				gy := out.Grad[i*n : (i+1)*n]
				sumG, sumGY := 0.0, 0.0
				for j := 0; j < n; j++ {
					sumG += gy[j]
					sumGY += gy[j] * y[j]
				}
				inv := invStds[i]
				for j := 0; j < n; j++ {
					a.Grad[i*n+j] += inv * (gy[j] - sumG/nf - y[j]*sumGY/nf)
				}
			}
		}
	}
	return out
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func logSigmoid(x float64) float64 {
	// log σ(x) = -log(1 + e^{-x}) = min(x,0) - log(1 + e^{-|x|})
	return math.Min(x, 0) - math.Log1p(math.Exp(-math.Abs(x)))
}

package tensor

import (
	"math/rand"
	"testing"
)

// refMatMul is the scalar reference for Tensor.MatMul in all three
// directions: out = a·b, then, given the upstream gradient dc, ga += dc·bᵀ
// and gb += aᵀ·dc. The loops are the tape's original hand-written ones,
// kept verbatim so the kernel-backed op is held to an independent schedule
// rather than to itself.
func refMatMul(ad []float64, m, k int, bd []float64, n int, og, aGrad, bGrad []float64) []float64 {
	od := make([]float64, m*n)
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	// dA = dC · Bᵀ
	for i := 0; i < m; i++ {
		grow := og[i*n : (i+1)*n]
		agrow := aGrad[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			brow := bd[p*n : (p+1)*n]
			s := 0.0
			for j := 0; j < n; j++ {
				s += grow[j] * brow[j]
			}
			agrow[p] += s
		}
	}
	// dB = Aᵀ · dC
	for p := 0; p < k; p++ {
		bgrow := bGrad[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := ad[i*k+p]
			if av == 0 {
				continue
			}
			grow := og[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bgrow[j] += av * grow[j]
			}
		}
	}
	return od
}

// TestTapeMatMulMatchesScalarReference holds the tape's MatMul — forward
// output, a.Grad and b.Grad — bit-exact against refMatMul on every matmul
// shape the decoder trains (dim 32, FF 64, 40 recipe positions, the
// 72-dim insight row) plus odd tails, with A full of exact zeros so the
// skip paths run, and with both gradients pre-seeded nonzero so the
// accumulation into existing buffers is covered.
func TestTapeMatMulMatchesScalarReference(t *testing.T) {
	shapes := [][3]int{
		{40, 32, 32}, {40, 32, 64}, {40, 64, 32}, {40, 32, 40}, {40, 40, 32},
		{40, 32, 1}, {40, 1, 32}, {1, 72, 32},
		{3, 7, 5}, {5, 1, 3}, {2, 5, 1},
	}
	forEachAxpyWidth(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			ad := randData(rng, m*k, 4)
			bd := randData(rng, k*n, 0)
			dc := randData(rng, m*n, 7)
			ga := randData(rng, m*k, 0)
			gb := randData(rng, k*n, 0)

			a, b := Param(m, k), Param(k, n)
			copy(a.Data, ad)
			copy(b.Data, bd)
			copy(a.Grad, ga)
			copy(b.Grad, gb)
			out := a.MatMul(b)
			out.Grad = append([]float64(nil), dc...)
			out.backward()

			want := refMatMul(ad, m, k, bd, n, dc, ga, gb)
			assertBitEqual(t, "forward", out.Data, want)
			assertBitEqual(t, "a.Grad", a.Grad, ga)
			assertBitEqual(t, "b.Grad", b.Grad, gb)
		}
	})
}

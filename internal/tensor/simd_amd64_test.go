//go:build amd64

package tensor

import "testing"

// forEachAxpyWidth runs f once on the axpy dispatch selected at init and
// once more with AVX2 disabled, so the SSE2 kernels are pinned even on
// AVX2 hardware. Callers must not run in parallel with other tests.
func forEachAxpyWidth(t *testing.T, f func(t *testing.T)) {
	t.Run("dispatch", f)
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	t.Run("sse2", f)
}

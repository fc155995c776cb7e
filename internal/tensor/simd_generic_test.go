//go:build !amd64

package tensor

import "testing"

// forEachAxpyWidth runs f on the scalar axpy reference, the only width on
// this architecture.
func forEachAxpyWidth(t *testing.T, f func(t *testing.T)) {
	t.Run("scalar", f)
}

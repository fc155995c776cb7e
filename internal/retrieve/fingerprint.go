// Package retrieve keys the serving tier's response cache: a stable
// 64-bit fingerprint of an insight vector (also the fleet router's
// consistent-hash key), a cache key that folds in the beam width, and a
// version-stamped LRU cache, so a hot design skips the decoder and a
// model hot-swap can never serve a stale answer.
package retrieve

import "math"

// fingerprintSeed separates insight fingerprints from other splitmix64
// users in the repo. It must stay stable: the fleet tier keys its
// consistent-hash ring on these fingerprints.
const fingerprintSeed = 0x496e7369676874 // "Insight"

// splitmix64 is the SplitMix64 finalizer — the same cheap, high-quality
// 64-bit mix internal/faultinject and internal/fleet use.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// quantization sentinels for values the 1e-6 grid cannot represent. +Inf
// and anything whose quantized magnitude exceeds int64 share a bucket (and
// likewise for -Inf): beyond the representable grid those values are
// indistinguishable anyway, and sharing keeps the mapping total and
// platform-independent (float→int conversion of an out-of-range value is
// implementation-defined in Go, so two replicas could otherwise disagree
// on the same vector's identity).
const (
	qNaN    = int64(math.MinInt64)
	qPosInf = int64(math.MaxInt64)
	qNegInf = int64(math.MinInt64 + 1)
)

// quantize maps one insight component onto the 1e-6 grid. IEEE-754 -0.0
// is canonicalized to +0.0 before folding: the two compare equal but have
// different bit patterns, and any bit-level divergence here would hash
// identical designs to different replicas and miss the response cache.
func quantize(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return qNaN
	case math.IsInf(v, 1):
		return qPosInf
	case math.IsInf(v, -1):
		return qNegInf
	}
	r := math.Round(v * 1e6)
	switch {
	case r >= float64(1)*(1<<63): // ≥ 2^63: not representable as int64
		return qPosInf
	case r <= -float64(1)*(1<<63):
		return qNegInf
	case r == 0:
		return 0 // collapses -0.0 (and values rounding to it) with +0.0
	}
	return int64(r)
}

// Fingerprint maps an insight vector to a stable 64-bit identity: the
// consistent-hash routing key and the response-cache key. Components are
// quantized to 1e-6 before hashing so the identity survives float
// serialization jitter (a JSON round trip) while distinct designs — whose
// insight features differ at the 1e-3 scale and above — land on distinct
// keys. NaN and ±Inf quantize to fixed sentinels so a malformed vector
// still routes deterministically, and -0.0 is canonicalized to +0.0 so
// sign-of-zero jitter cannot split one design across replicas or caches.
func Fingerprint(iv []float64) uint64 {
	h := splitmix64(fingerprintSeed ^ uint64(len(iv)))
	for _, v := range iv {
		h = splitmix64(h ^ uint64(quantize(v)))
	}
	return h
}

// CacheKey folds the beam width into an insight fingerprint so the
// serve-layer response cache never hands a k=3 response to a k=5 request
// for the same design (same insight, different candidate count).
func CacheKey(fp uint64, beamWidth int) uint64 {
	return splitmix64(fp ^ uint64(beamWidth))
}

// FiniteVector reports whether every component is a finite number, the
// gate callers must apply before using a vector as a cache key:
// Fingerprint is total, but its overflow sentinels alias distinct vectors
// (1e300 and +Inf share a bucket), which is fine for routing and fatal
// for a response cache.
func FiniteVector(iv []float64) bool {
	for _, v := range iv {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

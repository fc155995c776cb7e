// Package fleet is the horizontal serving tier: a front-end request
// router that fans /v1/recommend traffic out over N replica backends
// (each one an internal/serve process) using a consistent-hash ring keyed
// on the insight vector's fingerprint, so repeated queries for the same
// design land on the same replica (cache affinity — each replica's
// response cache only helps the designs routed to it). Around that core the
// router keeps per-replica health from /healthz polling plus observed
// outcomes feeding a per-replica circuit breaker (serve.Breaker), sends
// each request to one replica at a time and fails it over along the ring
// order when that replica errors, bounds per-replica admission with
// queues that shed 503 + Retry-After when the whole fleet is saturated,
// and propagates X-Trace-Id across the hop so /debug/traces shows the
// full router→replica path.
//
// Naming note: internal/router is the EDA global router (bin-capacity
// rip-up/reroute over placed netlists); this package is the serving
// fleet. The two are unrelated.
package fleet

import "insightalign/internal/retrieve"

// fingerprintSeed separates batch fingerprints from other splitmix64
// users in the repo. The per-vector seed lives in internal/retrieve,
// which owns the canonical fingerprint now that the response cache and
// the ring share one design identity.
const fingerprintSeed = 0x496e7369676874 // "Insight"

// splitmix64 is the SplitMix64 finalizer — the same cheap, high-quality
// 64-bit mix internal/faultinject uses for its schedule. The ring's
// vnode hashing and the tests' synthetic keys use it directly.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Fingerprint maps an insight vector to a stable 64-bit identity: the
// consistent-hash key. It is retrieve.Fingerprint — the router and the
// serve-layer response cache must agree on what "the same design" means,
// or a design's cache entries would be stranded on a replica its key no
// longer routes to.
func Fingerprint(iv []float64) uint64 {
	return retrieve.Fingerprint(iv)
}

// FingerprintBatch folds the element fingerprints of a client batch into
// one routing key, so an identical batch routes to the same replica while
// any element change moves it. The fold is order-sensitive: a batch is
// one request, not a set.
func FingerprintBatch(ivs [][]float64) uint64 {
	h := splitmix64(fingerprintSeed ^ 0x4261746368) // "Batch"
	for _, iv := range ivs {
		h = splitmix64(h ^ Fingerprint(iv))
	}
	return h
}

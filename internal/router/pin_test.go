package router

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

// pinnedRouteResultSHA is the SHA-256 of every router.Result field and every
// CongestionMap cell over pinDesigns × pinOptions. It was recorded before the router's
// candidate scoring was rewritten to build routes in place, so a reordered
// cost sum, a changed tie-break or a different candidate order fails this
// test rather than only the perfbench goldens.
const pinnedRouteResultSHA = "2cb9eeaea83a93ff7fa3fb50e24d6a87f1d2b762b60b84ab3352355941157c84"

// pinDesigns are suite designs at scale 0.25, from the 100-gate D11 to the
// 3,000-gate D17, with the placement utilisation each is placed at.
var pinDesigns = []struct {
	name string
	util float64
}{
	{"D17", 0.70},
	{"D1", 0.85},
	{"D6", 0.92},
	{"D4", 0.60},
	{"D10", 0.90},
	{"D11", 0.75},
}

// pinOptions span the knobs flow recipes move: no rip-up to six passes,
// zero to maximal expansion, tight to loose capacity, and flat to heavy
// congestion and detour weights.
var pinOptions = []Options{
	DefaultOptions(),
	{Iterations: 0, CongestionWeight: 1.0, DetourPenalty: 0.5, TrackUtil: 0.85, Expansion: 2, Seed: 3},
	{Iterations: 6, CongestionWeight: 4.0, DetourPenalty: 0.05, TrackUtil: 0.4, Expansion: 8, Seed: 7},
	{Iterations: 3, CongestionWeight: 0, DetourPenalty: 1.5, TrackUtil: 1.0, Expansion: 0, Seed: 11},
	{Iterations: 4, CongestionWeight: 2.5, DetourPenalty: 0.2, TrackUtil: 0.55, Expansion: 5, Seed: 13},
	{Iterations: 1, CongestionWeight: 0.5, DetourPenalty: 0, TrackUtil: 0.7, Expansion: 1, Seed: 17},
}

func hashFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

func hashInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}

// hashRoute writes every field of res and every cell of m into h.
func hashRoute(h hash.Hash, res *Result, m *CongestionMap) {
	hashInt(h, len(res.NetLengthUM))
	for _, v := range res.NetLengthUM {
		hashFloat(h, v)
	}
	hashFloat(h, res.TotalWirelengthUM)
	hashInt(h, res.OverflowTotal)
	hashInt(h, res.MaxEdgeOverflow)
	hashFloat(h, res.OverflowedEdgeFrac)
	hashInt(h, res.DRCViolations)
	hashInt(h, res.DetouredNets)
	hashFloat(h, res.AvgEdgeUtil)
	hashInt(h, m.BinsX)
	hashInt(h, m.BinsY)
	for _, v := range m.HUtil {
		hashFloat(h, v)
	}
	for _, v := range m.VUtil {
		hashFloat(h, v)
	}
}

// TestRouteResultPinned routes six suite designs under six option sets and
// requires the digest of every Result and CongestionMap to match the pin bit
// for bit. Route must return the same Result as RouteWithMap on every case.
func TestRouteResultPinned(t *testing.T) {
	specs := map[string]netlist.Spec{}
	for _, s := range netlist.SuiteSpecs(0.25) {
		specs[s.Name] = s
	}
	h := sha256.New()
	for _, d := range pinDesigns {
		nl, err := netlist.Generate(specs[d.name])
		if err != nil {
			t.Fatal(err)
		}
		popt := placer.DefaultOptions()
		popt.TargetUtil = d.util
		popt.Seed = 1
		pl, err := placer.Place(nl, popt)
		if err != nil {
			t.Fatal(err)
		}
		for i, opt := range pinOptions {
			res, m, err := RouteWithMap(nl, pl, opt)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Route(nl, pl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, res) {
				t.Fatalf("%s options %d: Route and RouteWithMap disagree", d.name, i)
			}
			hashRoute(h, res, m)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedRouteResultSHA {
		t.Fatalf("route result digest %s, want %s", got, pinnedRouteResultSHA)
	}
}

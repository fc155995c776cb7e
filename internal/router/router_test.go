package router

import (
	"testing"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

func placed(t *testing.T, gates int, locality float64, util float64) (*netlist.Netlist, *placer.Result) {
	t.Helper()
	nl, err := netlist.Generate(netlist.Spec{
		Name: "r", Seed: 31, Gates: gates, SeqFraction: 0.25, Depth: 10,
		TechName: "N16", ClockTightness: 1.0, HVTFraction: 0.3, LVTFraction: 0.1,
		Locality: locality, FanoutSkew: 0.5, ShortPathFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := placer.DefaultOptions()
	opt.TargetUtil = util
	pl, err := placer.Place(nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	return nl, pl
}

func TestRouteBasic(t *testing.T) {
	nl, pl := placed(t, 500, 0.5, 0.7)
	res, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetLengthUM) != len(nl.Cells) {
		t.Fatal("NetLengthUM wrong length")
	}
	if res.TotalWirelengthUM <= 0 {
		t.Fatal("zero total wirelength")
	}
	for id := range nl.Cells {
		if len(nl.Cells[id].Fanouts) > 0 && res.NetLengthUM[id] < 0 {
			t.Fatalf("negative net length for %d", id)
		}
	}
	if res.AvgEdgeUtil < 0 {
		t.Fatal("negative edge util")
	}
}

func TestRouteDeterministic(t *testing.T) {
	nl, pl := placed(t, 400, 0.5, 0.7)
	a, _ := Route(nl, pl, DefaultOptions())
	b, _ := Route(nl, pl, DefaultOptions())
	if a.TotalWirelengthUM != b.TotalWirelengthUM || a.OverflowTotal != b.OverflowTotal {
		t.Fatal("routing not deterministic")
	}
}

func TestIterationsReduceOverflow(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.92) // congestion-prone
	none := DefaultOptions()
	none.Iterations = 0
	many := DefaultOptions()
	many.Iterations = 6
	a, _ := Route(nl, pl, none)
	b, _ := Route(nl, pl, many)
	if a.OverflowTotal == 0 {
		t.Skip("design not congested enough to test overflow reduction")
	}
	// Negotiated rerouting trades peak congestion for spread: the worst
	// edge and the DRC estimate must improve, even if total overflow is
	// redistributed over more edges.
	if b.MaxEdgeOverflow >= a.MaxEdgeOverflow {
		t.Fatalf("iterations did not reduce peak overflow: %d -> %d", a.MaxEdgeOverflow, b.MaxEdgeOverflow)
	}
	if b.DRCViolations >= a.DRCViolations {
		t.Fatalf("iterations did not reduce DRC estimate: %d -> %d", a.DRCViolations, b.DRCViolations)
	}
}

func TestDetoursCostWirelength(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.92)
	none := DefaultOptions()
	none.Iterations = 0
	many := DefaultOptions()
	many.Iterations = 6
	many.DetourPenalty = 0.05
	a, _ := Route(nl, pl, none)
	b, _ := Route(nl, pl, many)
	if b.DetouredNets > 0 && b.TotalWirelengthUM < a.TotalWirelengthUM {
		t.Fatalf("detours should not shorten wirelength: %g -> %g", a.TotalWirelengthUM, b.TotalWirelengthUM)
	}
}

func TestLowerTrackUtilMoreOverflow(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.9)
	tight := DefaultOptions()
	tight.TrackUtil = 0.4
	loose := DefaultOptions()
	loose.TrackUtil = 1.0
	a, _ := Route(nl, pl, tight)
	b, _ := Route(nl, pl, loose)
	if a.OverflowTotal < b.OverflowTotal {
		t.Fatalf("tighter capacity should overflow more: tight=%d loose=%d", a.OverflowTotal, b.OverflowTotal)
	}
}

func TestDRCViolationsTrackOverflow(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.92)
	res, _ := Route(nl, pl, DefaultOptions())
	if res.OverflowTotal == 0 && res.DRCViolations != 0 {
		t.Fatal("DRC violations without overflow")
	}
	if res.OverflowTotal > 50 && res.DRCViolations == 0 {
		t.Fatal("heavy overflow should produce DRC violations")
	}
}

func TestValidation(t *testing.T) {
	bad := []Options{
		{Iterations: -1, TrackUtil: 0.8},
		{Iterations: 2, TrackUtil: 0.1},
		{Iterations: 2, TrackUtil: 0.8, Expansion: 100},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLRouteGeometry(t *testing.T) {
	var r route
	r.setL(0, 0, 3, 2, true)
	if r.length() != 5 {
		t.Fatalf("L route length = %d, want 5", r.length())
	}
	r.setL(2, 2, 2, 2, false)
	if r.length() != 0 {
		t.Fatalf("degenerate L route length = %d, want 0", r.length())
	}
}

func TestZRouteGeometry(t *testing.T) {
	// 0,0 → 4,0 via column 2 should still have length >= manhattan.
	var r route
	r.setZ(0, 0, 4, 0, 2, true)
	if r.length() < 4 {
		t.Fatalf("Z route shorter than manhattan: %d", r.length())
	}
	var r2 route
	r2.setZ(0, 0, 0, 4, 2, false)
	if r2.length() < 4 {
		t.Fatalf("vertical Z route shorter than manhattan: %d", r2.length())
	}
}

func TestGridApplyAndOverflow(t *testing.T) {
	g := newGrid(4, 4, 2)
	var r route
	r.setL(0, 0, 3, 0, true)
	g.apply(&r, 1)
	g.apply(&r, 1)
	if g.totalOverflow() != 0 {
		t.Fatal("at capacity is not overflow")
	}
	g.apply(&r, 1)
	if g.totalOverflow() != 3 {
		t.Fatalf("overflow = %d, want 3 (three edges, one over each)", g.totalOverflow())
	}
	if !g.crossesOverflow(&r) {
		t.Fatal("route should cross overflow")
	}
	g.apply(&r, -1)
	if g.totalOverflow() != 0 {
		t.Fatal("rip-up should clear overflow")
	}
}

func TestCongestionWeightSpreadsRoutes(t *testing.T) {
	nl, pl := placed(t, 700, 0.2, 0.9)
	flat := DefaultOptions()
	flat.CongestionWeight = 0
	flat.Iterations = 0
	aware := DefaultOptions()
	aware.CongestionWeight = 4
	aware.Iterations = 0
	a, _ := Route(nl, pl, flat)
	b, _ := Route(nl, pl, aware)
	if b.MaxEdgeOverflow > a.MaxEdgeOverflow {
		t.Fatalf("congestion weight should not worsen max overflow: flat=%d aware=%d",
			a.MaxEdgeOverflow, b.MaxEdgeOverflow)
	}
}

// Package router implements bin-grid global routing: every net is routed
// driver→sink with an L-shape chosen by congestion cost, followed by
// rip-up-and-reroute iterations that detour nets through Z-shapes around
// overflowed edges. Residual overflow is converted into a DRC-violation
// estimate, and per-net routed lengths feed timing and power.
package router

import (
	"fmt"
	"math"
	"math/rand"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

// Options are the routing knobs exposed to flow recipes (Table II: "Adjust
// knobs of routing congestion" and "Adjust global routing hyperparameters").
type Options struct {
	// Iterations is the number of rip-up-and-reroute passes after the
	// initial routing.
	Iterations int
	// CongestionWeight scales how strongly edge usage repels new routes.
	CongestionWeight float64
	// DetourPenalty in cost units per bin discourages long Z detours.
	DetourPenalty float64
	// TrackUtil in (0,1] derates nominal edge capacity (router headroom).
	TrackUtil float64
	// Expansion widens the detour search window by this many bins.
	Expansion int
	// Seed drives tie-breaking.
	Seed int64
}

// DefaultOptions returns a balanced flow default.
func DefaultOptions() Options {
	return Options{Iterations: 2, CongestionWeight: 1.0, DetourPenalty: 0.5, TrackUtil: 0.85, Expansion: 2}
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.Iterations < 0 || o.Iterations > 20 {
		return fmt.Errorf("router: Iterations %d out of [0,20]", o.Iterations)
	}
	if o.TrackUtil <= 0.2 || o.TrackUtil > 1.0 {
		return fmt.Errorf("router: TrackUtil %g out of (0.2,1.0]", o.TrackUtil)
	}
	if o.Expansion < 0 || o.Expansion > 8 {
		return fmt.Errorf("router: Expansion %d out of [0,8]", o.Expansion)
	}
	return nil
}

// Result is a completed global route.
type Result struct {
	// NetLengthUM is the routed length of the net driven by each cell ID
	// (0 for cells that drive nothing).
	NetLengthUM []float64
	// TotalWirelengthUM is the sum of all routed net lengths.
	TotalWirelengthUM float64
	// OverflowTotal is the summed capacity excess over all edges after
	// the final iteration.
	OverflowTotal int
	// MaxEdgeOverflow is the worst single-edge excess.
	MaxEdgeOverflow int
	// OverflowedEdgeFrac is the fraction of grid edges over capacity.
	OverflowedEdgeFrac float64
	// DRCViolations estimates post-detail-route violations from residual
	// congestion.
	DRCViolations int
	// DetouredNets counts nets that took a Z-detour.
	DetouredNets int
	// AvgEdgeUtil is mean edge usage / capacity.
	AvgEdgeUtil float64
}

// grid tracks horizontal and vertical edge usage between adjacent bins.
type grid struct {
	bx, by int
	// hUse[y*bx+x] is usage of the edge from bin (x,y) to (x+1,y).
	hUse []int
	// vUse[y*bx+x] is usage of the edge from bin (x,y) to (x,y+1).
	vUse []int
	cap  int
}

func newGrid(bx, by, cap int) *grid {
	return &grid{bx: bx, by: by, hUse: make([]int, bx*by), vUse: make([]int, bx*by), cap: cap}
}

// segment is one horizontal or vertical run of a route.
type segment struct {
	x, y, len int
	horiz     bool
}

// route is the path of one two-pin connection. It is a fixed value, not a
// slice, so candidates are built and scored without allocating: an L route
// has at most two segments and a Z route at most three.
type route struct {
	seg [3]segment
	n   int
}

func (g *grid) apply(r *route, delta int) {
	for _, s := range r.seg[:r.n] {
		x, y := s.x, s.y
		for i := 0; i < s.len; i++ {
			if s.horiz {
				g.hUse[y*g.bx+x] += delta
				x++
			} else {
				g.vUse[y*g.bx+x] += delta
				y++
			}
		}
	}
}

// cost computes the congestion-aware cost of a route.
func (g *grid) cost(r *route, congWeight float64) float64 {
	c := 0.0
	for _, s := range r.seg[:r.n] {
		x, y := s.x, s.y
		for i := 0; i < s.len; i++ {
			var use int
			if s.horiz {
				use = g.hUse[y*g.bx+x]
				x++
			} else {
				use = g.vUse[y*g.bx+x]
				y++
			}
			c++
			if over := float64(use+1) - float64(g.cap); over > 0 {
				c += congWeight * over * over
			} else {
				c += congWeight * float64(use) / float64(g.cap) * 0.3
			}
		}
	}
	return c
}

func (r *route) addH(xa, xb, y int) {
	if xa == xb {
		return
	}
	if xa > xb {
		xa, xb = xb, xa
	}
	r.seg[r.n] = segment{x: xa, y: y, len: xb - xa, horiz: true}
	r.n++
}

func (r *route) addV(ya, yb, x int) {
	if ya == yb {
		return
	}
	if ya > yb {
		ya, yb = yb, ya
	}
	r.seg[r.n] = segment{x: x, y: ya, len: yb - ya, horiz: false}
	r.n++
}

// addL appends the segments of one of the two L-shaped routes between bins.
func (r *route) addL(x1, y1, x2, y2 int, horizFirst bool) {
	if horizFirst {
		r.addH(x1, x2, y1)
		r.addV(y1, y2, x2)
	} else {
		r.addV(y1, y2, x1)
		r.addH(x1, x2, y2)
	}
}

// setL makes r one of the two L-shaped routes between bins.
func (r *route) setL(x1, y1, x2, y2 int, horizFirst bool) {
	r.n = 0
	r.addL(x1, y1, x2, y2, horizFirst)
}

// setZ makes r a Z-shaped detour through intermediate column/row m.
func (r *route) setZ(x1, y1, x2, y2, m int, horizFirst bool) {
	r.n = 0
	if horizFirst {
		// x1→m at y1, y1→y2 at m, m→x2 at y2.
		r.addL(x1, y1, m, y2, true)
		r.addL(m, y2, x2, y2, true)
	} else {
		r.addL(x1, y1, x2, m, false)
		r.addL(x2, m, x2, y2, false)
	}
}

func (r *route) length() int {
	n := 0
	for _, s := range r.seg[:r.n] {
		n += s.len
	}
	return n
}

// conn is one driver→sink two-pin connection.
type conn struct {
	driver, sink   int
	x1, y1, x2, y2 int
	r              route
	detoured       bool
}

// Route globally routes all signal nets of nl at the placement pl.
func Route(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, error) {
	res, _, err := routeImpl(nl, pl, opt)
	return res, err
}

// RouteWithMap routes and additionally returns the per-edge congestion map
// for visualization.
func RouteWithMap(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, *CongestionMap, error) {
	res, g, err := routeImpl(nl, pl, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, g.toMap(), nil
}

func routeImpl(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, *grid, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	tech := nl.Tech

	// Edge capacity: tracks per bin edge scaled by bin height in routing
	// pitches and derated by TrackUtil.
	pitches := pl.BinH / (tech.CellHeightUM / 2)
	cap := int(float64(tech.RoutingTracks) * opt.TrackUtil * pitches / 10)
	if cap < 4 {
		cap = 4
	}
	g := newGrid(pl.BinsX, pl.BinsY, cap)

	// Build two-pin connections (star model per net).
	n := 0
	for id := range nl.Cells {
		n += len(nl.Cells[id].Fanouts)
	}
	conns := make([]conn, 0, n)
	for id := range nl.Cells {
		for _, s := range nl.Cells[id].Fanouts {
			x1, y1 := pl.BinOf(pl.X[id], pl.Y[id])
			x2, y2 := pl.BinOf(pl.X[s], pl.Y[s])
			conns = append(conns, conn{driver: id, sink: s, x1: x1, y1: y1, x2: x2, y2: y2})
		}
	}

	// Initial pass: best of the two L-shapes.
	var a, b route
	for i := range conns {
		c := &conns[i]
		a.setL(c.x1, c.y1, c.x2, c.y2, true)
		b.setL(c.x1, c.y1, c.x2, c.y2, false)
		ca := g.cost(&a, opt.CongestionWeight)
		cb := g.cost(&b, opt.CongestionWeight)
		if ca < cb || (ca == cb && rng.Intn(2) == 0) {
			c.r = a
		} else {
			c.r = b
		}
		g.apply(&c.r, 1)
	}

	// Rip-up and reroute nets crossing overflowed edges. Each candidate is
	// built in place in cand, scored, and copied into best only if it wins.
	var cand route
	for it := 0; it < opt.Iterations; it++ {
		if g.totalOverflow() == 0 {
			break
		}
		for i := range conns {
			c := &conns[i]
			if !g.crossesOverflow(&c.r) {
				continue
			}
			g.apply(&c.r, -1)
			best := c.r
			bestCost := g.cost(&c.r, opt.CongestionWeight)
			bestDetour := c.detoured
			direct := manhattan(c.x1, c.y1, c.x2, c.y2)
			try := func(detoured bool) {
				cost := g.cost(&cand, opt.CongestionWeight) +
					opt.DetourPenalty*float64(cand.length()-direct)
				if cost < bestCost {
					best, bestCost, bestDetour = cand, cost, detoured
				}
			}
			cand.setL(c.x1, c.y1, c.x2, c.y2, true)
			try(false)
			cand.setL(c.x1, c.y1, c.x2, c.y2, false)
			try(false)
			lo, hi := minInt(c.x1, c.x2)-opt.Expansion, maxInt(c.x1, c.x2)+opt.Expansion
			for m := lo; m <= hi; m++ {
				if m < 0 || m >= g.bx || m == c.x1 || m == c.x2 {
					continue
				}
				cand.setZ(c.x1, c.y1, c.x2, c.y2, m, true)
				try(true)
			}
			lo, hi = minInt(c.y1, c.y2)-opt.Expansion, maxInt(c.y1, c.y2)+opt.Expansion
			for m := lo; m <= hi; m++ {
				if m < 0 || m >= g.by || m == c.y1 || m == c.y2 {
					continue
				}
				cand.setZ(c.x1, c.y1, c.x2, c.y2, m, false)
				try(true)
			}
			c.r = best
			c.detoured = bestDetour
			g.apply(&c.r, 1)
		}
	}

	// Collect results.
	res := &Result{NetLengthUM: make([]float64, len(nl.Cells))}
	binLen := (pl.BinW + pl.BinH) / 2
	for _, c := range conns {
		l := float64(c.r.length()) * binLen
		if c.r.length() == 0 {
			// Same-bin connection: use the intra-bin Manhattan distance.
			l = math.Abs(pl.X[c.driver]-pl.X[c.sink]) + math.Abs(pl.Y[c.driver]-pl.Y[c.sink])
		}
		res.NetLengthUM[c.driver] += l
		res.TotalWirelengthUM += l
		if c.detoured {
			res.DetouredNets++
		}
	}
	totalUse, edges := 0, 0
	for _, dir := range [2][]int{g.hUse, g.vUse} {
		for _, use := range dir {
			edges++
			totalUse += use
			if over := use - g.cap; over > 0 {
				res.OverflowTotal += over
				if over > res.MaxEdgeOverflow {
					res.MaxEdgeOverflow = over
				}
				res.OverflowedEdgeFrac++
			}
		}
	}
	res.OverflowedEdgeFrac /= float64(edges)
	res.AvgEdgeUtil = float64(totalUse) / float64(edges) / float64(g.cap)
	// Residual overflow becomes detail-route DRC violations; clustering of
	// overflow (max edge) makes it superlinearly worse.
	res.DRCViolations = res.OverflowTotal/3 + res.MaxEdgeOverflow*res.MaxEdgeOverflow/8
	return res, g, nil
}

func (g *grid) totalOverflow() int {
	t := 0
	for _, u := range g.hUse {
		if u > g.cap {
			t += u - g.cap
		}
	}
	for _, u := range g.vUse {
		if u > g.cap {
			t += u - g.cap
		}
	}
	return t
}

func (g *grid) crossesOverflow(r *route) bool {
	for _, s := range r.seg[:r.n] {
		x, y := s.x, s.y
		for i := 0; i < s.len; i++ {
			if s.horiz {
				if g.hUse[y*g.bx+x] > g.cap {
					return true
				}
				x++
			} else {
				if g.vUse[y*g.bx+x] > g.cap {
					return true
				}
				y++
			}
		}
	}
	return false
}

func manhattan(x1, y1, x2, y2 int) int {
	return absInt(x1-x2) + absInt(y1-y2)
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

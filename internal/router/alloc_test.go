package router

import (
	"testing"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

// TestRouteAllocBudget requires Route to allocate a fixed handful of objects
// (the rng, the grid, the connection list and the Result) however many nets
// it routes: candidate routes are scored in place, never built on the heap.
func TestRouteAllocBudget(t *testing.T) {
	const budget = 10
	opt := DefaultOptions()
	opt.Iterations = 4
	var counts []float64
	for _, gates := range []int{300, 1200} {
		nl, pl := placed(t, gates, 0.1, 0.92)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Route(nl, pl, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d gates: %.0f allocs per Route", gates, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("allocs per Route grow with design size: %.0f at 300 gates, %.0f at 1200", counts[0], counts[1])
	}
	if counts[0] > budget {
		t.Fatalf("%.0f allocs per Route, budget %d", counts[0], budget)
	}
}

// BenchmarkRoute measures one global route of suite design D17 at scale 0.25
// (3,000 gates) with the default options.
func BenchmarkRoute(b *testing.B) {
	var spec netlist.Spec
	for _, s := range netlist.SuiteSpecs(0.25) {
		if s.Name == "D17" {
			spec = s
		}
	}
	nl, err := netlist.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := placer.Place(nl, placer.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(nl, pl, opt); err != nil {
			b.Fatal(err)
		}
	}
}

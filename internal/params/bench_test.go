package params

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkTablePlanInto prices the Algorithm 2 walk of a whole
// allocation into a reused dst: selection plus the switching test on
// every slot whose candidate moves, with nonzero OHn/OHf so both
// drops and overhead-gated rises occur. 12 slots is the paper's
// period; 1024 a fine-grained one.
func BenchmarkTablePlanInto(b *testing.B) {
	cfg := pamaConfig(b)
	cfg.OverheadProc, cfg.OverheadFreq = 0.5, 1
	tbl, err := BuildTable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pts := tbl.Points()
	lo, hi := pts[0].Power, pts[len(pts)-1].Power
	for _, n := range []int{12, 1024} {
		allocation := make([]float64, n)
		for i := range allocation {
			x := 2 * math.Pi * float64(i) / float64(n)
			allocation[i] = lo + (hi-lo)*(0.5+0.35*math.Sin(x)+0.15*math.Sin(13*x))
		}
		dst := make([]PlanStep, n)
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl.PlanInto(dst, allocation, 4.8)
			}
		})
	}
}

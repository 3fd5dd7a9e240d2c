package experiments

import (
	"fmt"
	"io"

	"clustersim/internal/isa"
)

// CharacterizeResult describes each synthetic benchmark the way a
// methodology section would: op mix, branch predictability, memory
// behavior, and baseline monolithic performance. It substantiates the
// DESIGN.md substitution argument with measured numbers.
type CharacterizeResult struct {
	Rows []CharacterRow
}

// CharacterRow is one benchmark's profile.
type CharacterRow struct {
	Bench       string
	CPI         float64 // 1x8w dependence-based baseline
	IPC         float64
	BranchFrac  float64 // branches per instruction
	MispredRate float64 // gshare misses per branch
	LoadFrac    float64
	StoreFrac   float64
	FPFrac      float64
	L1MissRate  float64
	StaticPCs   int
}

// Characterize measures every benchmark on the monolithic machine.
func Characterize(opts Options) (*CharacterizeResult, error) {
	opts = opts.WithDefaults()
	rows, err := parBench(opts, func(bench string) (CharacterRow, error) {
		var row CharacterRow
		row.Bench = bench
		tr, err := genTrace(opts, bench)
		if err != nil {
			return row, err
		}
		a, err := sim(opts, bench, 1, StackDepBased, false)
		if err != nil {
			return row, err
		}
		res := a.Res
		s := tr.Summarize()
		n := float64(s.Total)
		row.CPI = res.CPI()
		row.IPC = res.IPC()
		row.BranchFrac = float64(s.Branches) / n
		row.MispredRate = res.MispredictRate()
		row.LoadFrac = s.Frac(isa.Load)
		row.StoreFrac = s.Frac(isa.Store)
		row.FPFrac = s.Frac(isa.FPAdd) + s.Frac(isa.FPMult) + s.Frac(isa.FPDiv)
		row.L1MissRate = res.L1MissRate
		pcs := map[uint64]bool{}
		for i := range tr.Insts {
			pcs[tr.Insts[i].PC] = true
		}
		row.StaticPCs = len(pcs)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &CharacterizeResult{Rows: rows}, nil
}

// Render writes the characterization table.
func (r *CharacterizeResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Workload characterization (1x8w, dependence-based steering)")
	fmt.Fprintf(w, "%-8s %6s %6s %7s %8s %6s %6s %5s %7s %7s\n",
		"bench", "CPI", "IPC", "branch", "mispred", "load", "store", "fp", "L1miss", "PCs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %6.3f %6.2f %6.1f%% %7.1f%% %5.1f%% %5.1f%% %4.1f%% %6.1f%% %7d\n",
			row.Bench, row.CPI, row.IPC, row.BranchFrac*100, row.MispredRate*100,
			row.LoadFrac*100, row.StoreFrac*100, row.FPFrac*100, row.L1MissRate*100,
			row.StaticPCs)
	}
}

package bench

import (
	"fmt"

	"nvmgc/internal/metrics"
)

// Fig1 reproduces Figure 1: application and GC time for six applications
// when the heap moves from DRAM to NVM (vanilla G1). The paper reports GC
// slowing 2.02-8.25x (avg 6.53x) while application time grows only 2.68x
// on average, with movie-lens barely affected.
func Fig1(p Params) (*Report, error) {
	names := fig1Apps
	if p.Quick {
		names = fig1QuickApps
	}
	apps, err := scenarios(names)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   "Application and GC time, DRAM vs NVM (vanilla G1)",
		Columns: []string{"app", "device", "app (s)", "gc (s)", "gc share", "gc slowdown", "app slowdown"},
	}
	outs, err := grid(p, apps, p.threads(16), placed(dramHeap), asIs)
	if err != nil {
		return nil, err
	}

	var gcSlow, appSlow []float64
	var shareDRAM, shareNVM []float64
	for i, app := range apps {
		dram, nvm := outs[i][0].res, outs[i][1].res

		gs := ratio(float64(nvm.GC), float64(dram.GC))
		as := ratio(float64(nvm.App), float64(dram.App))
		gcSlow = append(gcSlow, gs)
		appSlow = append(appSlow, as)
		shareDRAM = append(shareDRAM, ratio(float64(dram.GC), float64(dram.Total)))
		shareNVM = append(shareNVM, ratio(float64(nvm.GC), float64(nvm.Total)))

		t.AddRow(app.Name, "dram", seconds(dram.App), seconds(dram.GC),
			ratio(float64(dram.GC), float64(dram.Total)), "", "")
		t.AddRow(app.Name, "nvm", seconds(nvm.App), seconds(nvm.GC),
			ratio(float64(nvm.GC), float64(nvm.Total)), gs, as)
	}

	rep := &Report{ID: "fig1", Title: "App and GC time when replacing DRAM with NVM", Tables: []*metrics.Table{t}}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("avg GC slowdown on NVM: %.2fx (paper: 6.53x avg, 2.02-8.25x range)", mean(gcSlow)),
		fmt.Sprintf("avg app slowdown on NVM: %.2fx (paper: 2.68x avg)", mean(appSlow)),
		fmt.Sprintf("GC share of execution: %.1f%% on DRAM vs %.1f%% on NVM (paper: 3.0%% vs 6.3%%)",
			100*mean(shareDRAM), 100*mean(shareNVM)),
	)
	return rep, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

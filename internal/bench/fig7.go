package bench

import (
	"fmt"

	"nvmgc/internal/cassandra"
	"nvmgc/internal/gc"
)

// Fig7 reproduces Figure 7: the split read/write NVM bandwidth during GC
// for page-rank, naive-bayes and akka-uct, optimized vs vanilla. The
// paper's signatures:
//   - page-rank: vanilla read and write bandwidth anti-correlate; the
//     optimized run suppresses writes during traversal and ends with a
//     short write-back burst near the peak non-temporal bandwidth;
//   - naive-bayes: large primitive-array copies make reads sequential and
//     high (26.5 GB/s optimized) with a longer write-only phase;
//   - akka-uct: load imbalance leaves bandwidth moderate even optimized,
//     and the tiny live set makes the write-back phase negligible.
func Fig7(p Params) (*Report, error) {
	threads := p.threads(16)
	apps, err := scenarios(fig7Apps)
	if err != nil {
		return nil, err
	}
	if p.Quick {
		apps = apps[:1]
	}
	rows := 24
	if p.Quick {
		rows = 8
	}

	configs := []struct {
		label string
		opt   gc.Options
	}{
		{"optimized", gc.Optimized()},
		{"vanilla", gc.Vanilla()},
	}
	var variants []func(*runSpec)
	for _, cfg := range configs {
		variants = append(variants, func(s *runSpec) {
			s.host.Opt = cfg.opt
			s.host.Machine = p.machineConfig(true)
		})
	}
	outs, err := grid(p, apps, threads, variants...)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fig7", Title: "Split NVM bandwidth during GC"}
	for i, app := range apps {
		for ci, cfg := range configs {
			res, m := outs[i][ci].res, outs[i][ci].M
			// Pick the longest GC pause and plot a window around it.
			pauses := cassandra.PauseIntervals(m, m.Now()-res.Total, m.Now())
			if len(pauses) == 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s/%s: no GC observed", app.Name, cfg.label))
				continue
			}
			longest := pauses[0]
			for _, pi := range pauses {
				if pi.End-pi.Start > longest.End-longest.Start {
					longest = pi
				}
			}
			pad := (longest.End - longest.Start) / 5
			rep.Tables = append(rep.Tables, traceTable(
				fmt.Sprintf("%s (%s): NVM bandwidth around the longest GC", app.Name, cfg.label),
				m, m.NVM, longest.Start-pad, longest.End+pad, rows))

			r, w, _ := m.NVM.Trace().Window(longest.Start, longest.End)
			var s gc.CollectionStats
			for _, c := range res.Collections {
				if c.Pause == longest.End-longest.Start {
					s = c
					break
				}
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s/%s: during longest GC read %.0f MB/s write %.0f MB/s; read-mostly %.1fms write-only %.1fms",
				app.Name, cfg.label, r, w, ms(s.ReadMostly), ms(s.WriteOnly)))
		}
	}
	return rep, nil
}

package workload

import (
	"fmt"
	"sort"

	"nvmgc/internal/gc"
)

// Spec is one registered scenario: either a Profile (the paper's fixed
// application demographics) or a keyed Core scenario. Both run through
// the one Runner; the backing only decides which mutator it drives.
type Spec struct {
	Name   string
	Family string // "legacy", "cassandra", "ycsb"
	Desc   string

	Profile *Profile
	Core    *Core
}

// NewRunner prepares the spec's run over the collector's heap; Run
// executes it.
func (s Spec) NewRunner(col gc.Collector, cfg Config) (*Runner, error) {
	if s.Profile == nil && s.Core == nil {
		return nil, fmt.Errorf("workload: scenario %q has no backing profile or core", s.Name)
	}
	if cfg.GCThreads <= 0 {
		cfg.GCThreads = 8
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	h := col.Heap()
	r := &Runner{h: h, m: h.Machine(), col: col, name: s.Name, cfg: cfg}
	var err error
	if s.Profile != nil {
		r.mut, err = newProfileMutator(h, *s.Profile, cfg)
	} else if r.mut, err = newKeyedMutator(h, *s.Core, cfg); err != nil {
		err = fmt.Errorf("workload %s: %w", s.Name, err)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

var scenarioRegistry = map[string]Spec{}

// Register adds a scenario to the registry, rejecting duplicate names
// and specs with zero or two backings.
func Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("workload: scenario with empty name")
	}
	if _, dup := scenarioRegistry[s.Name]; dup {
		return fmt.Errorf("workload: duplicate scenario %q", s.Name)
	}
	if (s.Profile == nil) == (s.Core == nil) {
		return fmt.Errorf("workload: scenario %q must have exactly one of Profile or Core", s.Name)
	}
	scenarioRegistry[s.Name] = s
	return nil
}

// MustRegister is Register for static tables; it panics on error.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Scenarios returns every registered scenario ordered by family then
// name (the -list-workloads order).
func Scenarios() []Spec {
	out := make([]Spec, 0, len(scenarioRegistry))
	for _, s := range scenarioRegistry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ScenarioByName resolves a scenario, listing the valid names on miss.
func ScenarioByName(name string) (Spec, error) {
	if s, ok := scenarioRegistry[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workload: unknown scenario %q (run -list-workloads for the %d available)",
		name, len(scenarioRegistry))
}

// ycsbCore builds a core-mix variant off the shared defaults.
func ycsbCore(mut func(*Core)) *Core {
	c := CoreDefaults()
	c.ReadProp = 0
	mut(&c)
	return &c
}

func init() {
	// The 26 paper profiles, as the legacy family.
	for i := range profiles {
		MustRegister(Spec{
			Name: profiles[i].Name, Family: "legacy",
			Desc:    fmt.Sprintf("%s (%s) paper profile", profiles[i].Name, profiles[i].Suite),
			Profile: &profiles[i],
		})
	}
	// The cassandra server phases (consumed by internal/cassandra).
	for i := range cassandraProfiles {
		MustRegister(Spec{
			Name: cassandraProfiles[i].Name, Family: "cassandra",
			Desc:    "cassandra-stress server phase",
			Profile: &cassandraProfiles[i],
		})
	}
	// The YCSB core mixes (Cooper et al., SoCC'10) plus hotspot-skew
	// variants of the two update-bearing mixes.
	MustRegister(Spec{Name: "ycsb-a", Family: "ycsb",
		Desc: "50/50 read/update, zipfian",
		Core: ycsbCore(func(c *Core) { c.ReadProp, c.UpdateProp = 0.5, 0.5 })})
	MustRegister(Spec{Name: "ycsb-b", Family: "ycsb",
		Desc: "95/5 read/update, zipfian",
		Core: ycsbCore(func(c *Core) {
			c.ReadProp, c.UpdateProp = 0.95, 0.05
			c.Ops = 240_000 // 5% garbage rate needs a longer run to cycle eden
		})})
	MustRegister(Spec{Name: "ycsb-c", Family: "ycsb",
		Desc: "read-only, zipfian",
		Core: ycsbCore(func(c *Core) { c.ReadProp = 1 })})
	MustRegister(Spec{Name: "ycsb-d", Family: "ycsb",
		Desc: "95/5 read/insert, latest-skewed",
		Core: ycsbCore(func(c *Core) {
			c.ReadProp, c.InsertProp = 0.95, 0.05
			c.Request = DistLatest
			c.Ops = 240_000 // 5% insert rate needs a longer run to cycle eden
		})})
	MustRegister(Spec{Name: "ycsb-e", Family: "ycsb",
		Desc: "95/5 scan/insert, zipfian",
		Core: ycsbCore(func(c *Core) {
			c.ScanProp, c.InsertProp = 0.95, 0.05
			c.Ops = 120_000 // scans are read-heavy; moderate stretch
		})})
	MustRegister(Spec{Name: "ycsb-f", Family: "ycsb",
		Desc: "50/50 read/read-modify-write, zipfian",
		Core: ycsbCore(func(c *Core) { c.ReadProp, c.RMWProp = 0.5, 0.5 })})
	MustRegister(Spec{Name: "ycsb-a-hotspot", Family: "ycsb",
		Desc: "50/50 read/update, hotspot (20% keys / 80% ops)",
		Core: ycsbCore(func(c *Core) {
			c.ReadProp, c.UpdateProp = 0.5, 0.5
			c.Request = DistHotspot
		})})
	MustRegister(Spec{Name: "ycsb-b-hotspot", Family: "ycsb",
		Desc: "95/5 read/update, hotspot (20% keys / 80% ops)",
		Core: ycsbCore(func(c *Core) {
			c.ReadProp, c.UpdateProp = 0.95, 0.05
			c.Request = DistHotspot
			c.Ops = 240_000
		})})
}

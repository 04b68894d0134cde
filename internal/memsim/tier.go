package memsim

import (
	"fmt"
	"strings"
)

// TierSpec declares one memory tier of a machine topology: a named device
// instance built from a Profile plus the attributes the GC stack reads
// instead of asking "is this DRAM?" — persistence-domain membership and
// the eADR property (workload.NewHost builds the persistence domain from
// the persistent tier's). The profile's aggregate bandwidth numbers fold
// in DIMM interleaving.
type TierSpec struct {
	Name    string
	Profile Profile

	// Persistent marks the tier as part of a persistence domain: data that
	// reaches the device survives power failure. Volatile tiers lose their
	// contents at a crash.
	Persistent bool

	// EADR marks a persistent tier whose platform extends the persistence
	// domain over the CPU caches (stores are durable at execution).
	EADR bool
}

// Tier is one instantiated memory tier: a Device plus its spec. The
// embedded Device carries the per-tier traffic statistics and bandwidth
// trace.
type Tier struct {
	*Device
	spec TierSpec
}

// Spec returns the tier's declaration.
func (t *Tier) Spec() TierSpec { return t.spec }

// Persistent reports whether data on this tier survives power failure.
func (t *Tier) Persistent() bool { return t.spec.Persistent }

// EADR reports whether the tier's persistence domain includes the CPU
// caches.
func (t *Tier) EADR() bool { return t.spec.Persistent && t.spec.EADR }

// Topology is the ordered set of memory tiers a Machine owns. Order is
// the declaration order and is stable: per-tier statistics are reported
// in it, so results stay deterministic.
type Topology struct {
	tiers  []*Tier
	byName map[string]*Tier
}

// NewTopology instantiates the given tier specs (one Device each).
// Names must be non-empty and unique.
func NewTopology(specs []TierSpec, traceBucket Time) (*Topology, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("memsim: topology needs at least one tier")
	}
	tp := &Topology{byName: make(map[string]*Tier, len(specs))}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("memsim: tier with empty name")
		}
		if _, dup := tp.byName[spec.Name]; dup {
			return nil, fmt.Errorf("memsim: duplicate tier name %q", spec.Name)
		}
		t := &Tier{Device: NewDevice(spec.Name, spec.Profile, traceBucket), spec: spec}
		tp.tiers = append(tp.tiers, t)
		tp.byName[spec.Name] = t
	}
	return tp, nil
}

// Tiers returns every tier in declaration order.
func (tp *Topology) Tiers() []*Tier { return tp.tiers }

// Tier returns the tier registered under name.
func (tp *Topology) Tier(name string) (*Tier, bool) {
	t, ok := tp.byName[name]
	return t, ok
}

// TierOf returns the tier owning dev, or nil for a foreign device.
func (tp *Topology) TierOf(dev *Device) *Tier {
	for _, t := range tp.tiers {
		if t.Device == dev {
			return t
		}
	}
	return nil
}

// Names returns the tier names in declaration order.
func (tp *Topology) Names() []string {
	out := make([]string, len(tp.tiers))
	for i, t := range tp.tiers {
		out[i] = t.spec.Name
	}
	return out
}

// String renders the topology compactly ("dram:volatile, nvm:persistent").
func (tp *Topology) String() string {
	parts := make([]string, len(tp.tiers))
	for i, t := range tp.tiers {
		attr := "volatile"
		if t.Persistent() {
			attr = "persistent"
			if t.EADR() {
				attr = "persistent+eadr"
			}
		}
		parts[i] = t.spec.Name + ":" + attr
	}
	return strings.Join(parts, ", ")
}

// builtinTiers is the registry of named tier profiles selectable from the
// gcsim/nvmbench command lines. "local-dram" and "optane" are the default
// pair; "remote-dram" models a NUMA-remote (or CXL-attached) DRAM node
// following Akram et al.'s NUMA-based hybrid-memory emulation
// (arXiv:1808.00064): roughly 1.8x the local latency and about half the
// local bandwidth, with a mildly higher sensitivity to the write mix from
// the interconnect; "eadr-nvm" is the Optane point on an eADR platform.
func builtinTiers() []TierSpec {
	return []TierSpec{
		{Name: "local-dram", Profile: DRAMProfile()},
		{Name: "remote-dram", Profile: RemoteDRAMProfile()},
		{Name: "optane", Profile: OptaneProfile(), Persistent: true},
		{Name: "eadr-nvm", Profile: OptaneProfile(), Persistent: true, EADR: true},
	}
}

// BuiltinTiers returns the built-in tier profiles in registry order.
func BuiltinTiers() []TierSpec { return builtinTiers() }

// BuiltinTier returns the built-in tier spec registered under name.
func BuiltinTier(name string) (TierSpec, bool) {
	for _, s := range builtinTiers() {
		if s.Name == name {
			return s, true
		}
	}
	return TierSpec{}, false
}

// MustBuiltinTier returns the built-in tier spec registered under name,
// panicking on an unknown name (for code with a registry-internal name in
// hand; front ends validate user input with BuiltinTier).
func MustBuiltinTier(name string) TierSpec {
	s, ok := BuiltinTier(name)
	if !ok {
		panic(fmt.Sprintf("memsim: unknown builtin tier %q (have %v)", name, BuiltinTierNames()))
	}
	return s
}

// BuiltinTierNames returns the registry's names in order.
func BuiltinTierNames() []string {
	specs := builtinTiers()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

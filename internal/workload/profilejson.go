package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LoadProfile reads a custom application profile from JSON, so new
// workloads can be defined without writing Go. Missing fields inherit
// from Base, one of the paper's 26 application profiles (the legacy
// scenarios), or from a neutral default when Base is empty.
//
// Example:
//
//	{
//	  "Base": "page-rank",
//	  "Name": "my-graph-job",
//	  "Survival": 0.45,
//	  "EdenFills": 12
//	}
func LoadProfile(r io.Reader) (Profile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return Profile{}, fmt.Errorf("workload: read profile: %w", err)
	}
	var meta struct {
		Base string
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return Profile{}, fmt.Errorf("workload: parse profile: %w", err)
	}
	p := defaultCustomProfile()
	if meta.Base != "" {
		s, err := ScenarioByName(meta.Base)
		if err == nil && s.Family != "legacy" {
			err = fmt.Errorf("workload: scenario %q is not one of the paper's application profiles", meta.Base)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("workload: base profile: %w", err)
		}
		p = *s.Profile
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return Profile{}, fmt.Errorf("workload: parse profile: %w", err)
	}
	if err := p.valid(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// LoadProfileFile is LoadProfile over a file path.
func LoadProfileFile(path string) (Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return Profile{}, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	return LoadProfile(f)
}

// defaultCustomProfile is the neutral base for profiles defined from
// scratch: a mid-of-the-road Renaissance-like application.
func defaultCustomProfile() Profile {
	return Profile{
		Name: "custom", Suite: "custom",
		ObjWords: 6, RefsPerObj: 2, ChainLen: 8,
		PrimArrayFrac: 0.2, PrimArrayWords: 64,
		Survival: 0.15, ChurnDrop: 0.85, HolderFrac: 0.3,
		LongLivedFrac: 0.08, HolderArrays: 8, HolderSlots: 128,
		CPUNsPerKB: 800, RandReadsPerKB: 3, SeqKBPerKB: 0.2,
		EdenFills: 5,
	}
}

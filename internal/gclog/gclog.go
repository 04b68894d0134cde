// Package gclog provides a structured, serializable GC event log — the
// simulated analogue of -Xlog:gc* — plus summary analysis. Tools emit it
// as JSON lines so runs can be archived and compared.
package gclog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"nvmgc/internal/gc"
	"nvmgc/internal/memsim"
	"nvmgc/internal/metrics"
)

// Event is one collection record.
type Event struct {
	Seq       int     `json:"seq"`
	Collector string  `json:"collector"`
	Config    string  `json:"config"`
	Threads   int     `json:"threads"`
	Full      bool    `json:"full,omitempty"`
	Mixed     bool    `json:"mixed,omitempty"`
	MarkMs    float64 `json:"mark_ms,omitempty"`

	PauseMs      float64 `json:"pause_ms"`
	ReadMostlyMs float64 `json:"read_mostly_ms"`
	WriteOnlyMs  float64 `json:"write_only_ms"`
	CleanupMs    float64 `json:"cleanup_ms"`

	SlotsProcessed  int64 `json:"slots"`
	ObjectsCopied   int64 `json:"objects_copied"`
	BytesCopied     int64 `json:"bytes_copied"`
	ObjectsPromoted int64 `json:"objects_promoted"`
	WastedCopies    int64 `json:"wasted_copies,omitempty"`
	StolenSlots     int64 `json:"stolen_slots,omitempty"`

	NVMReadMB      float64 `json:"nvm_read_mb"`
	NVMWriteMB     float64 `json:"nvm_write_mb"`
	NVMWritebackMB float64 `json:"nvm_writeback_mb"`
	NVMNTMB        float64 `json:"nvm_nt_mb"`
	DRAMTotalMB    float64 `json:"dram_total_mb"`

	// TierTotalMB is the per-tier total traffic breakdown by tier name
	// (JSON maps encode with sorted keys, so output stays deterministic).
	TierTotalMB map[string]float64 `json:"tier_total_mb,omitempty"`

	HeaderMapHits      int64 `json:"hm_hits,omitempty"`
	HeaderMapInstalls  int64 `json:"hm_installs,omitempty"`
	HeaderMapFallbacks int64 `json:"hm_fallbacks,omitempty"`

	CacheRegionsUsed    int64 `json:"wc_regions,omitempty"`
	RegionsFlushedSync  int64 `json:"wc_sync_flushes,omitempty"`
	RegionsFlushedAsync int64 `json:"wc_async_flushes,omitempty"`
	CacheFallbackBytes  int64 `json:"wc_fallback_bytes,omitempty"`
}

func mb(b int64) float64 { return float64(b) / 1e6 }

// FromStats converts a collection's statistics into a log event.
func FromStats(seq int, collector string, opt gc.Options, threads int, s gc.CollectionStats) Event {
	return Event{
		Seq:       seq,
		Collector: collector,
		Config:    opt.Label(),
		Threads:   threads,
		Full:      s.Full,
		Mixed:     s.Mixed,
		MarkMs:    msF(s.MarkTime),

		PauseMs:      msF(s.Pause),
		ReadMostlyMs: msF(s.ReadMostly),
		WriteOnlyMs:  msF(s.WriteOnly),
		CleanupMs:    msF(s.Cleanup),

		SlotsProcessed:  s.SlotsProcessed,
		ObjectsCopied:   s.ObjectsCopied,
		BytesCopied:     s.BytesCopied,
		ObjectsPromoted: s.ObjectsPromoted,
		WastedCopies:    s.WastedCopies,
		StolenSlots:     s.StolenSlots,

		NVMReadMB:      mb(s.NVM.ReadBytes),
		NVMWriteMB:     mb(s.NVM.WriteBytes),
		NVMWritebackMB: mb(s.NVM.WritebackBytes),
		NVMNTMB:        mb(s.NVM.NTBytes),
		DRAMTotalMB:    mb(s.DRAM.Total()),
		TierTotalMB:    tierTotals(s.Tiers),

		HeaderMapHits:      s.HeaderMapHits,
		HeaderMapInstalls:  s.HeaderMapInstalls,
		HeaderMapFallbacks: s.HeaderMapFallbacks,

		CacheRegionsUsed:    s.CacheRegionsUsed,
		RegionsFlushedSync:  s.RegionsFlushedSync,
		RegionsFlushedAsync: s.RegionsFlushedAsync,
		CacheFallbackBytes:  s.CacheFallbackBytes,
	}
}

func msF(t memsim.Time) float64 { return float64(t) / float64(memsim.Millisecond) }

// tierTotals folds a per-tier traffic breakdown into name -> total MB.
func tierTotals(tiers []gc.TierTraffic) map[string]float64 {
	if len(tiers) == 0 {
		return nil
	}
	out := make(map[string]float64, len(tiers))
	for _, tt := range tiers {
		out[tt.Name] = mb(tt.Stats.Total())
	}
	return out
}

// Log is a sequence of collection events.
type Log []Event

// FromCollections converts a collector's history into a log.
func FromCollections(collector string, opt gc.Options, threads int, cs []gc.CollectionStats) Log {
	l := make(Log, 0, len(cs))
	for i, s := range cs {
		l = append(l, FromStats(i, collector, opt, threads, s))
	}
	return l
}

// WriteJSON emits the log as JSON lines.
func (l Log) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range l {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON parses a JSON-lines log.
func ReadJSON(r io.Reader) (Log, error) {
	var l Log
	dec := json.NewDecoder(r)
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("gclog: %w", err)
		}
		l = append(l, e)
	}
	return l, nil
}

// Summary aggregates a log.
type Summary struct {
	Collections  int
	FullGCs      int
	TotalPauseMs float64
	MaxPauseMs   float64
	P50PauseMs   float64
	P95PauseMs   float64
	CopiedMB     float64
	NVMReadMB    float64
	NVMWriteMB   float64
	// WriteSeparation is the share of NVM write traffic moved through
	// the bandwidth-friendly non-temporal path.
	WriteSeparation float64
}

// Summarize computes the log's summary.
func (l Log) Summarize() Summary {
	s := Summary{Collections: len(l)}
	pauses := make([]float64, 0, len(l))
	var wb, nt float64
	for _, e := range l {
		if e.Full {
			s.FullGCs++
		}
		pauses = append(pauses, e.PauseMs)
		s.TotalPauseMs += e.PauseMs
		if e.PauseMs > s.MaxPauseMs {
			s.MaxPauseMs = e.PauseMs
		}
		s.CopiedMB += float64(e.BytesCopied) / 1e6
		s.NVMReadMB += e.NVMReadMB
		s.NVMWriteMB += e.NVMWriteMB
		wb += e.NVMWritebackMB
		nt += e.NVMNTMB
	}
	if len(pauses) > 0 {
		sort.Float64s(pauses)
		s.P50PauseMs = metrics.Quantile(pauses, 50)
		s.P95PauseMs = metrics.Quantile(pauses, 95)
	}
	if wb+nt > 0 {
		s.WriteSeparation = nt / (wb + nt)
	}
	return s
}

// Render returns the log as a human-readable table.
func (l Log) Render() string {
	t := metrics.Table{
		Title: "GC log",
		Columns: []string{"#", "kind", "pause (ms)", "read-mostly", "write-only",
			"copied (MB)", "promoted", "nvm r/w (MB)", "hm hits", "wc regions"},
	}
	for _, e := range l {
		kind := "young"
		switch {
		case e.Full:
			kind = "full"
		case e.Mixed:
			kind = "mixed"
		}
		t.AddRow(e.Seq, kind, e.PauseMs, e.ReadMostlyMs, e.WriteOnlyMs,
			float64(e.BytesCopied)/1e6, e.ObjectsPromoted,
			fmt.Sprintf("%.1f/%.1f", e.NVMReadMB, e.NVMWriteMB),
			e.HeaderMapHits, e.CacheRegionsUsed)
	}
	return t.Render()
}

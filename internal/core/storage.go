package core

import "fmt"

// StorageItem is one row of the paper's Table 2.
type StorageItem struct {
	Structure string
	Detail    string
	Bits      int
}

// Bytes returns the row's storage in bytes (rounded up).
func (s StorageItem) Bytes() float64 { return float64(s.Bits) / 8 }

// StorageBudget computes CLIP's storage overhead for a configuration,
// reproducing Table 2 (1.56 KB/core for the default configuration with a
// 512-entry ROB).
func StorageBudget(cfg Config, robEntries int) []StorageItem {
	filterEntries := cfg.FilterSets * cfg.FilterWays
	// 6-bit IP tag + crit count + 6-bit hit + 6-bit issue + crit-acc bit.
	filterEntryBits := 6 + critCountBits + 6 + 6 + 1
	predEntries := cfg.PredictorSets * cfg.PredictorWays
	// 6-bit criticality tag + k-bit saturating counter + NRU bit.
	predEntryBits := 6 + counterBits + 1

	return []StorageItem{
		{
			Structure: "Criticality filter",
			Detail: fmt.Sprintf("%d-set, %d-way (%d entries), %d bits/entry",
				cfg.FilterSets, cfg.FilterWays, filterEntries, filterEntryBits),
			Bits: filterEntries * filterEntryBits,
		},
		{
			Structure: "Criticality predictor",
			Detail: fmt.Sprintf("%d-set, %d-way (%d entries), %d bits/entry",
				cfg.PredictorSets, cfg.PredictorWays, predEntries, predEntryBits),
			Bits: predEntries * predEntryBits,
		},
		{
			Structure: "ROB extension",
			Detail:    fmt.Sprintf("miss-level flag, 1 bit x %d entries", robEntries),
			Bits:      robEntries,
		},
		{
			Structure: "ROB flag",
			Detail:    "ROB-stall flag",
			Bits:      1,
		},
		{
			Structure: "Utility buffer",
			Detail: fmt.Sprintf("%d entries, 6-bit IP tag + 58-bit line address",
				cfg.UtilityEntries),
			Bits: cfg.UtilityEntries * (6 + 58),
		},
		{
			Structure: "Branch and criticality history",
			Detail: fmt.Sprintf("%d-bit and %d-bit shift registers",
				branchHistBits, critHistBits),
			Bits: branchHistBits + critHistBits,
		},
		{
			Structure: "APC",
			Detail:    "two 11-bit registers",
			Bits:      22,
		},
		{
			Structure: "Exploration window",
			Detail:    "10-bit reset count",
			Bits:      10,
		},
	}
}

// TotalStorageBytes sums the budget in bytes.
func TotalStorageBytes(cfg Config, robEntries int) float64 {
	var bits int
	for _, it := range StorageBudget(cfg, robEntries) {
		bits += it.Bits
	}
	return float64(bits) / 8
}

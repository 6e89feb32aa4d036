// Package area computes the storage and silicon area of the hardware
// structures evaluated in the paper: the DMU (Table III), the Task
// Superscalar pipeline it is compared against (Section VI-C), and Carbon's
// hardware queues.
//
// Storage is derived bit by bit from the structure layouts: internal task and
// dependence IDs are sized by the tables they index, list-array entries hold
// eight IDs plus a next pointer, and alias-table entries hold the full 64-bit
// address plus the internal ID. Area uses a linear SRAM model calibrated
// against the CACTI 6.0 numbers of Table III (22 nm): a fixed per-structure
// overhead plus a per-KB density, with a higher density for set-associative
// structures that need tag matching.
package area

import (
	"math"

	"repro/internal/dmu"
)

// SRAM area model calibrated against Table III (CACTI 6.0, 22 nm).
const (
	structureBaseMM2 = 0.00916
	directMM2PerKB   = 0.000732
	assocMM2PerKB    = 0.001165
)

// Bit-layout constants.
const (
	addressBits = 64
	counterBits = 4 // saturating successor/predecessor counters in the Task Table
)

// Entry reports one structure.
type Entry struct {
	Name      string
	StorageKB float64
	AreaMM2   float64
}

// Report is a full storage/area breakdown.
type Report struct {
	Entries    []Entry
	TotalKB    float64
	TotalMM2   float64
	Technology string
}

// bitsToKB converts a bit count to kilobytes.
func bitsToKB(bits int) float64 { return float64(bits) / 8 / 1024 }

// log2ceil returns ceil(log2(n)) with a minimum of 1.
func log2ceil(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

func sramArea(kb float64, associative bool) float64 {
	per := directMM2PerKB
	if associative {
		per = assocMM2PerKB
	}
	return structureBaseMM2 + kb*per
}

// DMUReport computes the storage and area of every DMU structure for the
// given configuration. With the paper's configuration (2048-entry TAT/DAT,
// 1024-entry list arrays, 8 elements per entry) it reproduces Table III:
// 105.25 KB and ~0.17 mm².
func DMUReport(cfg dmu.Config) Report {
	taskIDBits := log2ceil(cfg.TATEntries)
	depIDBits := log2ceil(cfg.DATEntries)
	slaPtrBits := log2ceil(cfg.SLAEntries)
	dlaPtrBits := log2ceil(cfg.DLAEntries)
	rlaPtrBits := log2ceil(cfg.RLAEntries)

	taskTableBits := cfg.TATEntries * (addressBits + 2*counterBits + slaPtrBits + dlaPtrBits)
	depTableBits := cfg.DATEntries * (taskIDBits + rlaPtrBits)
	tatBits := cfg.TATEntries * (addressBits + taskIDBits)
	datBits := cfg.DATEntries * (addressBits + depIDBits)
	slaBits := cfg.SLAEntries * (cfg.ListElems*taskIDBits + slaPtrBits)
	dlaBits := cfg.DLAEntries * (cfg.ListElems*depIDBits + dlaPtrBits)
	rlaBits := cfg.RLAEntries * (cfg.ListElems*taskIDBits + rlaPtrBits)
	readyBits := cfg.ReadyQueueEntries * taskIDBits

	mk := func(name string, bits int, associative bool) Entry {
		kb := bitsToKB(bits)
		return Entry{Name: name, StorageKB: kb, AreaMM2: sramArea(kb, associative)}
	}
	entries := []Entry{
		mk("Task Table", taskTableBits, false),
		mk("Dependence Table", depTableBits, false),
		mk("TAT", tatBits, true),
		mk("DAT", datBits, true),
		mk("SLA", slaBits, false),
		mk("DLA", dlaBits, false),
		mk("RLA", rlaBits, false),
		mk("Ready Queue", readyBits, false),
	}
	rep := Report{Entries: entries, Technology: "22nm"}
	for _, e := range entries {
		rep.TotalKB += e.StorageKB
		rep.TotalMM2 += e.AreaMM2
	}
	return rep
}

// TaskSuperscalarReport estimates the storage of a Task Superscalar pipeline
// sized for the same number of in-flight tasks and dependences as the DMU
// configuration, following the paper's accounting (Section VI-C): a 1 KB
// gateway plus TRS, ORT and Ready Queue of 128 bytes per entry each (the OVT
// is excluded because dependence renaming is not modelled). For the default
// configuration this is 769 KB, 7.3x the DMU's 105.25 KB.
func TaskSuperscalarReport(cfg dmu.Config) Report {
	const entryBytes = 128
	const gatewayKB = 1.0
	perTable := float64(cfg.TATEntries) * entryBytes / 1024
	entries := []Entry{
		{Name: "Gateway", StorageKB: gatewayKB, AreaMM2: sramArea(gatewayKB, false)},
		{Name: "TRS", StorageKB: perTable, AreaMM2: sramArea(perTable, true)},
		{Name: "ORT", StorageKB: perTable, AreaMM2: sramArea(perTable, true)},
		{Name: "Ready Queue", StorageKB: perTable, AreaMM2: sramArea(perTable, false)},
	}
	rep := Report{Entries: entries, Technology: "22nm"}
	for _, e := range entries {
		rep.TotalKB += e.StorageKB
		rep.TotalMM2 += e.AreaMM2
	}
	return rep
}

// CarbonReport estimates the storage of Carbon's distributed hardware queues:
// one local task queue per core, each holding queueEntries task descriptors
// (64-bit addresses plus an 8-bit successor hint).
func CarbonReport(cores, queueEntries int) Report {
	bitsPerEntry := addressBits + 8
	perQueueKB := bitsToKB(queueEntries * bitsPerEntry)
	entries := make([]Entry, 0, 1)
	totalKB := perQueueKB * float64(cores)
	entries = append(entries, Entry{
		Name:      "Local Task Queues",
		StorageKB: totalKB,
		AreaMM2:   float64(cores) * sramArea(perQueueKB, false),
	})
	rep := Report{Entries: entries, Technology: "22nm"}
	for _, e := range entries {
		rep.TotalKB += e.StorageKB
		rep.TotalMM2 += e.AreaMM2
	}
	return rep
}

// StorageRatio returns how many times larger a is than b in storage.
func StorageRatio(a, b Report) float64 {
	if b.TotalKB == 0 {
		return 0
	}
	return a.TotalKB / b.TotalKB
}

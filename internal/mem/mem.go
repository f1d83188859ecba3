// Package mem holds the memory-system vocabulary shared by every substrate:
// request/response records, access types, service levels, address arithmetic
// and the deterministic PRNG used across the simulator.
package mem

import (
	"fmt"
	"math"
)

// Block geometry. The simulator models 64-byte cache lines and 4KB pages,
// matching the paper's baseline (Table 3).
const (
	LineBytes  = 64
	LineShift  = 6
	PageBytes  = 4096
	PageShift  = 12
	RegionLog2 = 11 // 2KB spatial region used by Bingo/DSPatch
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line returns the cache-line-aligned address.
func (a Addr) Line() Addr { return a &^ (LineBytes - 1) }

// LineID returns the cache-line index (address >> 6).
func (a Addr) LineID() uint64 { return uint64(a) >> LineShift }

// PageID returns the page number.
func (a Addr) PageID() uint64 { return uint64(a) >> PageShift }

// PageOffsetLine returns the line offset within the 4KB page (0..63).
func (a Addr) PageOffsetLine() int { return int((uint64(a) >> LineShift) & 63) }

// Region returns the 2KB region base used by spatial prefetchers.
func (a Addr) Region() uint64 { return uint64(a) >> RegionLog2 }

// AccessType distinguishes request classes in the hierarchy.
type AccessType uint8

const (
	Load AccessType = iota
	Store
	Prefetch
	Writeback
	Translation
)

func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	case Translation:
		return "translation"
	}
	return fmt.Sprintf("AccessType(%d)", uint8(t))
}

// Level identifies where in the hierarchy a request was serviced. It doubles
// as the paper's "miss level flag": zero (LevelL1) means the load was a hit at
// L1/LSQ; anything higher marks the load as a candidate critical load.
type Level uint8

const (
	LevelNone Level = iota
	LevelL1
	LevelL2
	LevelLLC
	LevelDRAM
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// Request is a memory request travelling down the hierarchy. It is copied
// through every queue of the hierarchy, so it is kept at 40 bytes: the four
// words first, then the two 16-bit indices and the four byte-sized fields,
// with no padding.
type Request struct {
	Addr Addr   // byte address (line-aligned below L1)
	IP   uint64 // instruction pointer of the triggering instruction

	// TriggerIP is not read by the simulator and not saved in an image:
	// the IP that triggered a request, a prefetch's included, is IP.
	//
	// Deprecated: use IP. The field stays only so that callers which still
	// set it compile.
	TriggerIP uint64

	// IssueCycle is when the request left the core (or prefetcher).
	IssueCycle uint64

	// Core is the originating core id.
	Core int16

	// ROBIndex links a demand load back to its ROB entry (-1 otherwise).
	ROBIndex int16

	// Type classifies the access: load / store / prefetch / writeback.
	Type AccessType

	// Critical is the CLIP criticality flag carried through the hierarchy;
	// the NoC and DRAM controller prioritise flagged prefetches like demands.
	Critical bool

	// FillLevel is the highest cache level a prefetch fills into.
	FillLevel Level

	// Owned marks a prefetch that has already allocated an MSHR at some
	// level. An un-owned prefetch may be silently dropped under structural
	// pressure; an owned one must be backpressured like a demand, or the
	// owning MSHR would wait forever.
	Owned bool
}

// MaxID bounds the count behind each of a Request's 16-bit indices: the
// simulator's Config.Validate refuses more cores, and cpu.Config.Validate a
// larger ROB.
const MaxID = math.MaxInt16

// Response is the answer travelling back up: a Request and its outcome in
// 56 bytes, the completion cycle before the three byte-sized fields.
type Response struct {
	Req         Request
	DoneCycle   uint64 // cycle the data reached the requester
	ServedBy    Level  // level that provided the data
	WasPrefetch bool   // serviced by an in-flight or completed prefetch
	LatePF      bool   // demand merged into a still-in-flight prefetch MSHR
}

// Latency returns the end-to-end cycles the request spent in the hierarchy.
func (r Response) Latency() uint64 {
	if r.DoneCycle < r.Req.IssueCycle {
		return 0
	}
	return r.DoneCycle - r.Req.IssueCycle
}

// NoEvent is the horizon a fully quiescent component reports from its
// NextEvent accessor: there is no future cycle at which it has work of its
// own (it can only be woken externally). Any real deadline folds below it.
const NoEvent = ^uint64(0)

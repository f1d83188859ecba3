package prefetch

import (
	"clip/internal/mem"
	"clip/internal/table"
)

// IPCP is the instruction pointer classifier prefetcher (Pakalapati & Panda,
// ISCA'20). It classifies load IPs into three classes and dispatches to a
// bouquet of per-class engines:
//
//   - CS (constant stride): high-confidence per-IP stride.
//   - CPLX (complex): a delta-signature predictor for repeating non-constant
//     stride sequences.
//   - GS (global stream): region-density streaming detected across IPs.
//
// Priority on conflict: CS > CPLX > GS, as in the paper.
type IPCP struct {
	aggr
	ip     *table.Fixed[ipcpEntry] // per-IP class state, FIFO replacement
	cplx   [ipcpCplxSize]cplxEntry
	region *table.Fixed[gsRegion] // GS region tracker, min-key replacement

	// scratchOut is reused across Train calls (the Prefetcher contract says
	// the returned slice is valid until the next Train). The GS class has
	// the largest degree.
	scratchOut [ipcpBaseDegree + 1 + maxBoost]Candidate
}

type ipcpEntry struct {
	lastLine uint64
	stride   int64
	conf     int8
	sig      uint16 // delta signature for CPLX
}

type cplxEntry struct {
	delta int64
	conf  int8
}

type gsRegion struct {
	bitmap   uint64
	lastOff  int
	forward  int
	backward int
	touched  int
}

const (
	ipcpTableSize  = 128
	ipcpCplxSize   = 4096
	ipcpCSConf     = 2
	ipcpBaseDegree = 3
	gsRegionMax    = 32
	gsDenseThresh  = 12
)

// newIPCPs constructs n classifiers with empty tables, carved per kind.
func newIPCPs(a *mem.Arena, n int) []IPCP {
	ps := mem.Make[IPCP](a, n)
	ips := table.NewFixeds[ipcpEntry](a, n, ipcpTableSize, table.FIFO)
	// Region replacement drops an arbitrary-but-deterministic victim: the
	// smallest region key, as the map-backed code did.
	regions := table.NewFixeds[gsRegion](a, n, gsRegionMax, table.MinKey)
	for i := range ps {
		ps[i].ip, ps[i].region = &ips[i], &regions[i]
	}
	return ps
}

// Name implements Prefetcher.
func (p *IPCP) Name() string { return "ipcp" }

// Train implements Prefetcher.
func (p *IPCP) Train(a Access) []Candidate {
	e, present, _, _, _ := p.ip.GetOrInsert(a.IP)
	line := a.Addr.LineID()
	if !present {
		e.lastLine = line
		return p.trainGS(a)
	}
	delta := int64(line) - int64(e.lastLine)
	e.lastLine = line
	if delta == 0 {
		return nil
	}

	// CS training.
	if delta == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.stride = delta
			e.conf = 1
		}
	}

	// CPLX training: signature -> next delta.
	idx := e.sig % ipcpCplxSize
	ce := &p.cplx[idx]
	if ce.delta == delta {
		if ce.conf < 3 {
			ce.conf++
		}
	} else {
		ce.conf--
		if ce.conf <= 0 {
			ce.delta = delta
			ce.conf = 1
		}
	}
	e.sig = (e.sig<<3 ^ uint16(mem.Mix64(uint64(delta))&0x3f)) & 0xfff

	degree := degreeFor(ipcpBaseDegree, p.Aggressiveness())

	// CS class wins when confident.
	if e.conf >= ipcpCSConf && e.stride != 0 {
		out := p.scratchOut[:0]
		for i := 1; i <= degree; i++ {
			t := int64(line) + e.stride*int64(i)
			if t <= 0 {
				break
			}
			out = append(out, Candidate{
				Addr:      mem.Addr(uint64(t) << mem.LineShift),
				TriggerIP: a.IP, FillLevel: mem.LevelL1,
				Confidence: 0.9,
			})
		}
		return out
	}

	// CPLX class: follow the signature chain.
	if ce.conf >= 2 && ce.delta != 0 {
		t := int64(line) + ce.delta
		if t > 0 {
			out := append(p.scratchOut[:0], Candidate{
				Addr:      mem.Addr(uint64(t) << mem.LineShift),
				TriggerIP: a.IP, FillLevel: mem.LevelL2, Confidence: 0.6,
			})
			return out
		}
	}

	return p.trainGS(a)
}

// trainGS detects dense sequential region activity across all IPs and
// streams ahead of it.
func (p *IPCP) trainGS(a Access) []Candidate {
	rid := a.Addr.Region()
	r, present, _, _, _ := p.region.GetOrInsert(rid)
	if !present {
		r.lastOff = -1
	}
	off := int(a.Addr.LineID() & 31) // 2KB region = 32 lines
	if r.bitmap&(1<<off) == 0 {
		r.bitmap |= 1 << off
		r.touched++
	}
	if r.lastOff >= 0 {
		if off > r.lastOff {
			r.forward++
		} else if off < r.lastOff {
			r.backward++
		}
	}
	r.lastOff = off
	if r.touched < gsDenseThresh {
		return nil
	}
	dir := int64(1)
	if r.backward > r.forward {
		dir = -1
	}
	degree := degreeFor(ipcpBaseDegree+1, p.Aggressiveness())
	line := int64(a.Addr.LineID())
	out := p.scratchOut[:0]
	for i := 1; i <= degree; i++ {
		t := line + dir*int64(i)
		if t <= 0 {
			break
		}
		out = append(out, Candidate{
			Addr:      mem.Addr(uint64(t) << mem.LineShift),
			TriggerIP: a.IP, FillLevel: mem.LevelL1, Confidence: 0.7,
		})
	}
	return out
}

package cache

import (
	"testing"

	"clip/internal/mem"
)

// newPolicy is the named policy for a sets x ways cache, its columns carved
// from slabs of its own; a cache carves them from its array's.
func newPolicy(name string, sets, ways int) *Policy {
	kind := policyKinds[name]
	nw, nb := kind.columns(sets, ways)
	words, bytes := make([]uint64, nw), make([]uint8, nb)
	p := new(Policy)
	p.carve(kind, sets, ways, &words, &bytes)
	return p
}

func TestNewPolicyNames(t *testing.T) {
	cfg := Config{Level: mem.LevelL2, Sets: 4, Ways: 4, MSHRs: 1, Ports: 1}
	for _, name := range []string{"", "lru", "nru", "srrip", "mockingjay"} {
		cfg.Policy = name
		if _, err := New(cfg, nil); err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
	}
	cfg.Policy = "belady"
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	p := newPolicy("lru", 1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w, &mem.Request{})
	}
	p.OnHit(0, 0) // way 0 most recent; way 1 is now LRU
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestNRUVictimUnreferenced(t *testing.T) {
	p := newPolicy("nru", 1, 4)
	p.OnFill(0, 0, &mem.Request{})
	p.OnFill(0, 1, &mem.Request{})
	v := p.Victim(0)
	if v != 2 && v != 3 {
		t.Fatalf("victim = %d, want an unreferenced way", v)
	}
}

func TestNRUClearsWhenSaturated(t *testing.T) {
	p := newPolicy("nru", 1, 2)
	p.OnFill(0, 0, &mem.Request{})
	p.OnFill(0, 1, &mem.Request{}) // all referenced -> clear others
	if v := p.Victim(0); v != 0 {
		t.Fatalf("victim = %d, want 0 after clear", v)
	}
}

func TestSRRIPPromotionOnHit(t *testing.T) {
	p := newPolicy("srrip", 1, 2)
	p.OnFill(0, 0, &mem.Request{})
	p.OnFill(0, 1, &mem.Request{})
	p.OnHit(0, 0)
	// Way 1 has higher RRPV so it should age out first.
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestSRRIPVictimTerminates(t *testing.T) {
	p := newPolicy("srrip", 1, 4)
	for w := 0; w < 4; w++ {
		p.OnFill(0, w, &mem.Request{})
		p.OnHit(0, w) // all rrpv 0
	}
	// Must age and terminate.
	v := p.Victim(0)
	if v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
}

func TestMockingjayLiteBypassesDeadSignatures(t *testing.T) {
	m := newPolicy("mockingjay", 1, 4)
	deadIP := uint64(0xDEAD)
	// Train: fill with deadIP, never hit, refill same ways repeatedly.
	for i := 0; i < 40; i++ {
		w := i % 4
		m.OnFill(0, w, &mem.Request{IP: deadIP, Type: mem.Prefetch})
	}
	// Now the signature is dead: a new fill should insert at distant RRPV.
	m.OnFill(0, 0, &mem.Request{IP: deadIP, Type: mem.Prefetch})
	if m.rrpv[0] != rrpvMax {
		t.Fatalf("dead-signature insert rrpv = %d, want %d", m.rrpv[0], rrpvMax)
	}
	// A reused signature keeps the default insertion.
	liveIP := uint64(0x11FE)
	for i := 0; i < 40; i++ {
		m.OnFill(0, 1, &mem.Request{IP: liveIP, Type: mem.Load})
		m.OnHit(0, 1)
	}
	m.OnFill(0, 1, &mem.Request{IP: liveIP, Type: mem.Load})
	if m.rrpv[1] == rrpvMax {
		t.Fatal("live-signature insert bypassed")
	}
}

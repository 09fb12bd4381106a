package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/vmem"
)

func TestBadGeometryRejected(t *testing.T) {
	cases := []struct {
		name                string
		total, lineSz, ways int
	}{
		{"zero total", 0, 64, 4},
		{"zero line", 1024, 0, 4},
		{"zero ways", 1024, 64, 0},
		{"non-pow2 line", 1024, 96, 4},
		{"lines not divisible", 64 * 3, 64, 2},
		{"non-pow2 sets", 64 * 6, 64, 2},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.total, c.lineSz, c.ways); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustNew("l1", 16<<10, 128, 4)
	if c.Lookup(0x1000) {
		t.Error("empty cache reported a hit")
	}
	c.Fill(0x1000)
	if !c.Lookup(0x1000) {
		t.Error("miss after fill")
	}
	if !c.Lookup(0x1040) { // same 128B line
		t.Error("same-line access missed")
	}
	if c.Lookup(0x2000) {
		t.Error("different line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construction: 2-way, 2 sets, 64B lines = 256 bytes.
	c := MustNew("tiny", 256, 64, 2)
	// Addresses mapping to set 0: line addrs 0, 2, 4 (even).
	a0 := vmem.PhysAddr(0 * 64)
	a2 := vmem.PhysAddr(2 * 64)
	a4 := vmem.PhysAddr(4 * 64)
	c.Fill(a0)
	c.Fill(a2)
	c.Lookup(a0) // a0 recently used; a2 is LRU
	evicted, was := c.Fill(a4)
	if !was {
		t.Fatal("expected eviction")
	}
	if evicted != c.LineAddr(a2) {
		t.Errorf("evicted line %d, want %d (LRU)", evicted, c.LineAddr(a2))
	}
	if !c.Contains(a0) || c.Contains(a2) || !c.Contains(a4) {
		t.Error("post-eviction residency wrong")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := MustNew("tiny", 256, 64, 2)
	c.Fill(0)
	if _, was := c.Fill(0); was {
		t.Error("refilling a resident line evicted something")
	}
	if c.Stats().Evictions != 0 {
		t.Error("eviction counted on idempotent fill")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew("tiny", 256, 64, 2)
	c.Fill(0x40)
	if !c.Invalidate(0x40) {
		t.Error("Invalidate missed a resident line")
	}
	if c.Contains(0x40) {
		t.Error("line still resident after Invalidate")
	}
	if c.Invalidate(0x40) {
		t.Error("Invalidate found an absent line")
	}
}

func TestMSHRCoalescing(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	fired := []uint64{}
	q := &event.Queue{}
	q.SetHandler(func(at uint64, ev event.Event) {
		if at != 42 {
			t.Errorf("waiter %d fired at %d, want 42", ev.Arg, at)
		}
		fired = append(fired, ev.Arg)
	})
	if !c.TrackMiss(0x1000, event.Event{Kind: event.Complete, Arg: 1}) {
		t.Error("first miss should be primary")
	}
	if c.TrackMiss(0x1010, event.Event{Kind: event.Complete, Arg: 2}) {
		t.Error("same-line miss should coalesce")
	}
	if c.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", c.InFlight())
	}
	c.CompleteMiss(0x1000, 42, q)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("waiters fired = %v, want [1 2]", fired)
	}
	if c.InFlight() != 0 {
		t.Errorf("InFlight = %d after completion", c.InFlight())
	}
	if !c.Contains(0x1000) {
		t.Error("line not resident after CompleteMiss")
	}
	if c.Stats().Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", c.Stats().Coalesced)
	}
}

// TestCloneCopiesMSHRs: a clone completes the source's outstanding
// misses with the same waiters, and new waiters on either copy stay
// private to it.
func TestCloneCopiesMSHRs(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	c.TrackMiss(0x1000, event.Event{Kind: event.Complete, Arg: 1})
	cl := c.Clone()
	c.TrackMiss(0x1000, event.Event{Kind: event.Complete, Arg: 2})
	cl.TrackMiss(0x1000, event.Event{Kind: event.Complete, Arg: 3})
	var fired []uint64
	q := &event.Queue{}
	q.SetHandler(func(_ uint64, ev event.Event) { fired = append(fired, ev.Arg) })
	cl.CompleteMiss(0x1000, 1, q)
	c.CompleteMiss(0x1000, 1, q)
	if fmt.Sprint(fired) != "[1 3 1 2]" {
		t.Errorf("waiters fired = %v, want clone [1 3] then source [1 2]", fired)
	}
}

func TestCoalescedMissNotDoubleCounted(t *testing.T) {
	c := MustNew("l2", 2<<20, 128, 16)
	c.Lookup(0x1000) // miss
	c.TrackMiss(0x1000, event.Event{})
	c.Lookup(0x1020) // same line: counted as miss by Lookup...
	c.TrackMiss(0x1020, event.Event{})
	s := c.Stats()
	// ...but reclassified as coalesced by TrackMiss.
	if s.Misses != 1 || s.Coalesced != 1 {
		t.Errorf("misses=%d coalesced=%d, want 1/1", s.Misses, s.Coalesced)
	}
}

func TestHitRate(t *testing.T) {
	c := MustNew("l1", 16<<10, 128, 4)
	c.Fill(0)
	c.Lookup(0)      // hit
	c.Lookup(0x4000) // miss
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %f, want 0.5", hr)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// Property: after filling N distinct lines that all map to one set of a
// W-way cache, exactly the W most recently used remain resident.
func TestSetResidencyProperty(t *testing.T) {
	prop := func(n uint8) bool {
		c := MustNew("p", 1024, 64, 4) // 4 sets, 4 ways
		count := int(n%12) + 1
		var addrs []vmem.PhysAddr
		for i := 0; i < count; i++ {
			a := vmem.PhysAddr(i * 4 * 64) // all set 0
			addrs = append(addrs, a)
			c.Fill(a)
		}
		resident := 0
		for i, a := range addrs {
			if c.Contains(a) {
				resident++
				if count-i > 4 { // should have been evicted
					return false
				}
			}
		}
		want := count
		if want > 4 {
			want = 4
		}
		return resident == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Lookup(a) after Fill(a) always hits, regardless of prior state,
// as long as no intervening fill maps to the same set.
func TestFillThenLookupProperty(t *testing.T) {
	prop := func(raw uint64) bool {
		c := MustNew("p", 16<<10, 128, 4)
		a := vmem.PhysAddr(raw & ((1 << 40) - 1))
		c.Fill(a)
		return c.Lookup(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

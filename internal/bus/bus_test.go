package bus

import (
	"testing"
	"testing/quick"
)

// table4Bus is the paper's interconnect: 16 B wide, 4:1 clock ratio,
// 1 bus-cycle arbitration, 64 B blocks.
func table4Bus() *Bus { return MustNew(16, 4, 1, 64) }

func TestSnoopDuration(t *testing.T) {
	b := table4Bus()
	done := b.Acquire(100, KindSnoop)
	// One pipelined address beat at the 4:1 ratio.
	if done != 104 {
		t.Fatalf("snoop done at %d, want 104", done)
	}
}

func TestDataTransferDuration(t *testing.T) {
	b := table4Bus()
	done := b.Acquire(100, KindData)
	// arb (4) + 64/16 beats * 4 cycles / 2 (pipelined) = 4 + 8.
	if done != 112 {
		t.Fatalf("data done at %d, want 112", done)
	}
}

func TestBackToBackSerializes(t *testing.T) {
	b := table4Bus()
	d1 := b.Acquire(0, KindData)
	d2 := b.Acquire(0, KindData)
	if d2 <= d1 {
		t.Fatalf("second transfer (%d) did not queue behind the first (%d)", d2, d1)
	}
	if w := b.Stats().WaitCycles; w == 0 {
		t.Fatal("no wait cycles recorded for a queued transfer")
	}
}

func TestSplitTransactionGapFilling(t *testing.T) {
	b := table4Bus()
	// A data phase reserved far in the future (a DRAM fill's return)...
	future := b.Acquire(1000, KindData)
	if future < 1000 {
		t.Fatal("future reservation mangled")
	}
	// ...must NOT delay an earlier transfer: the bus is split-transaction.
	early := b.Acquire(0, KindData)
	if early > 100 {
		t.Fatalf("early transfer done at %d; blocked by a future reservation", early)
	}
}

func TestAddressAndDataPathsIndependent(t *testing.T) {
	b := table4Bus()
	b.Acquire(0, KindData) // occupy the data path
	done := b.Acquire(0, KindSnoop)
	if done != 4 {
		t.Fatalf("snoop done at %d; address path must not contend with data", done)
	}
}

func TestUtilizationAndStats(t *testing.T) {
	b := table4Bus()
	b.Acquire(0, KindSnoop)
	b.Acquire(0, KindData)
	b.Acquire(0, KindWriteback)
	st := b.Stats()
	if st.Count(KindSnoop) != 1 || st.Count(KindData) != 1 || st.Count(KindWriteback) != 1 {
		t.Fatalf("transaction counts %v", st.Transactions)
	}
	if want := b.duration(KindSnoop) + b.duration(KindData) + b.duration(KindWriteback); st.BusyCycles != want {
		t.Fatalf("busy cycles %d, want %d", st.BusyCycles, want)
	}
}

func TestNoOverlapProperty(t *testing.T) {
	// Property: transactions on one path never overlap, regardless of the
	// request times (even regressing ones, as quantum skew produces).
	f := func(raw []uint16) bool {
		b := table4Bus()
		type span struct{ start, end int64 }
		var spans []span
		for _, r := range raw {
			now := int64(r % 2048)
			done := b.Acquire(now, KindData)
			dur := b.duration(KindData)
			spans = append(spans, span{done - dur, done})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, c := spans[i], spans[j]
				if a.start < c.end && c.start < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarStaysSortedAndDisjoint(t *testing.T) {
	// place relies on the busy list being sorted by start with disjoint
	// intervals (that is what makes binary-search insertion sufficient
	// without a re-sort pass). Hammer it with skewed timestamps and check
	// the invariant after every placement.
	f := func(raw []uint16) bool {
		b := table4Bus()
		for _, r := range raw {
			b.Acquire(int64(r%4096), Kind(r%3))
			for _, c := range []*calendar{&b.addrPath, &b.dataPath} {
				for i := 1; i < len(c.busy); i++ {
					if c.busy[i].start < c.busy[i-1].end {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadParameters(t *testing.T) {
	for _, c := range [][4]int{{0, 4, 1, 64}, {16, 0, 1, 64}, {16, 4, -1, 64}, {16, 4, 1, 0}} {
		if _, err := New(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("New(%v) accepted", c)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSnoop.String() != "snoop" || KindData.String() != "data" || KindWriteback.String() != "writeback" {
		t.Fatal("kind names wrong")
	}
}

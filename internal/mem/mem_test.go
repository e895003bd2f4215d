package mem

import (
	"testing"

	"snug/internal/addr"
)

func TestDRAMFixedLatency(t *testing.T) {
	d := MustDRAM(300)
	if done := d.Read(1000); done != 1300 {
		t.Fatalf("read done at %d, want 1300", done)
	}
	if done := d.Write(500); done != 800 {
		t.Fatalf("write done at %d, want 800", done)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDRAMRejectsBadParams(t *testing.T) {
	if _, err := NewDRAM(0); err == nil {
		t.Error("zero latency accepted")
	}
}

func issueAt(lat int64) func(int64) int64 {
	return func(start int64) int64 { return start + lat }
}

func TestWriteBufferFIFOAndDrain(t *testing.T) {
	wb := MustWriteBuffer(4)
	for i := 0; i < 3; i++ {
		if at := wb.Insert(10, addr.Addr(i*64), issueAt(50)); at != 10 {
			t.Fatalf("insert %d stalled to %d with free entries", i, at)
		}
	}
	if len(wb.entries) != 3 {
		t.Fatalf("%d entries pending, want 3", len(wb.entries))
	}
	// Draining is serial: each call schedules the head's write-back and a
	// later call (past its completion) retires it.
	for now := int64(100); len(wb.entries) > 0 && now < 1000; now += 60 {
		wb.Drain(now, issueAt(50))
	}
	if len(wb.entries) != 0 {
		t.Fatalf("%d entries pending after repeated drains", len(wb.entries))
	}
	if wb.Stats().Drains != 3 {
		t.Fatalf("drains = %d", wb.Stats().Drains)
	}
}

func TestWriteBufferMerging(t *testing.T) {
	wb := MustWriteBuffer(4)
	wb.Insert(0, 0x100, issueAt(50))
	wb.Insert(0, 0x100, issueAt(50)) // merges
	if len(wb.entries) != 1 || wb.Stats().Merges != 1 {
		t.Fatalf("len=%d merges=%d", len(wb.entries), wb.Stats().Merges)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	wb := MustWriteBuffer(2)
	wb.Insert(0, 0x000, issueAt(500))
	wb.Insert(0, 0x040, issueAt(500))
	at := wb.Insert(0, 0x080, issueAt(500))
	if at != 500 {
		t.Fatalf("full-buffer insert proceeded at %d, want 500 (head retirement)", at)
	}
	st := wb.Stats()
	if st.FullStalls != 1 || st.StallCycles != 500 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteBufferDirectReadAndTakeBack(t *testing.T) {
	wb := MustWriteBuffer(4)
	wb.Insert(0, 0x200, issueAt(50))
	if !wb.TakeBack(0x200) {
		t.Fatal("direct read missed a pending block")
	}
	if wb.Stats().DirectReads != 1 || len(wb.entries) != 0 {
		t.Fatalf("after a direct read: %d direct reads, %d entries pending; want 1 and 0", wb.Stats().DirectReads, len(wb.entries))
	}
	if wb.TakeBack(0x200) {
		t.Fatal("block still readable after TakeBack")
	}
	if wb.Stats().DirectReads != 1 {
		t.Fatal("a miss in the buffer counted as a direct read")
	}
}

func TestWriteBufferDrainRespectsSchedule(t *testing.T) {
	wb := MustWriteBuffer(4)
	wb.Insert(0, 0x300, issueAt(1000))
	wb.Drain(100, issueAt(1000)) // write-back completes at 1100 > 100
	if len(wb.entries) != 1 {
		t.Fatal("entry retired before its write-back completed")
	}
	wb.Drain(1100, issueAt(1000))
	if len(wb.entries) != 0 {
		t.Fatal("entry not retired at its completion time")
	}
}

func TestWriteBufferRejectsBadCapacity(t *testing.T) {
	if _, err := NewWriteBuffer(0); err == nil {
		t.Fatal("zero-capacity buffer accepted")
	}
}

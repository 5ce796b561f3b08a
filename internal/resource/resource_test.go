package resource

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestCategoryNames pins the pool labels — they are Prometheus label
// values and report vocabulary, so a rename is a breaking change.
func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		GroupTables:     "group-tables",
		UncertainCache:  "uncertain-cache",
		ColumnarScratch: "col-scratch",
		SegmentCache:    "segment-cache",
		Checkpoint:      "checkpoint",
	}
	if len(want) != int(NumCategories) {
		t.Fatalf("test covers %d categories, ledger has %d", len(want), NumCategories)
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), name)
		}
	}
	if Category(-1).String() != "unknown" || NumCategories.String() != "unknown" {
		t.Error("out-of-range categories must stringify as unknown")
	}
}

// TestLedgerNilSafety: a detached nil ledger ignores charges and reads
// zeros — the engine relies on this when accounting is off.
func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	l.Set(GroupTables, 100)
	l.Observe()
	l.RestorePeak(5)
	if l.Bytes(GroupTables) != 0 || l.Total() != 0 || l.PeakTotal() != 0 {
		t.Fatal("nil ledger reported non-zero residency")
	}
	if u := l.Snapshot(); u != (Usage{}) {
		t.Fatalf("nil ledger Snapshot = %+v, want zero", u)
	}
}

// TestLedgerPeaks: Observe advances the total peak; shrinking residency
// never lowers it; RestorePeak only raises it.
func TestLedgerPeaks(t *testing.T) {
	l := &Ledger{}
	l.Set(GroupTables, 100)
	l.Set(UncertainCache, 50)
	l.Observe()
	if l.Total() != 150 || l.PeakTotal() != 150 {
		t.Fatalf("after first observe: total %d peak %d", l.Total(), l.PeakTotal())
	}
	// Categories peak at different batches: the total peak is the max
	// simultaneous sum, not the sum of per-category peaks.
	l.Set(GroupTables, 20)
	l.Set(UncertainCache, 120)
	l.Observe()
	if got := l.PeakTotal(); got != 150 {
		t.Errorf("total peak %d, want 150 (max simultaneous)", got)
	}
	// Negative Set clamps; out-of-range categories are ignored.
	l.Set(GroupTables, -5)
	if l.Bytes(GroupTables) != 0 {
		t.Error("negative residency not clamped to zero")
	}
	l.Set(Category(99), 1)
	if l.Total() != 120 {
		t.Errorf("out-of-range Set leaked into total: %d", l.Total())
	}
	// RestorePeak is monotone in both directions of use.
	l.RestorePeak(100)
	if l.PeakTotal() != 150 {
		t.Error("RestorePeak lowered the peak")
	}
	l.RestorePeak(500)
	if l.PeakTotal() != 500 {
		t.Error("RestorePeak did not raise the peak")
	}
}

// TestSnapshotFields: Usage mirrors every category and totals line up;
// a Total above the recorded peak (Set without Observe yet) still
// reports PeakBytes >= TotalBytes.
func TestSnapshotFields(t *testing.T) {
	l := &Ledger{}
	vals := []int64{1, 2, 4, 8, 16} // one per category
	for c := Category(0); c < NumCategories; c++ {
		l.Set(c, vals[c])
	}
	u := l.Snapshot() // no Observe: peak must still cover the live total
	got := []int64{u.GroupTableBytes, u.UncertainBytes, u.ColScratchBytes,
		u.SegCacheBytes, u.CheckpointBytes}
	var sum int64
	for c := range vals {
		if got[c] != vals[c] {
			t.Errorf("category %v: snapshot %d, want %d", Category(c), got[c], vals[c])
		}
		sum += vals[c]
	}
	if u.TotalBytes != sum || u.PeakBytes != sum {
		t.Fatalf("total %d peak %d, want both %d", u.TotalBytes, u.PeakBytes, sum)
	}
	// Wire form stays stable: the dashboard's SSE payload and flbench
	// JSON both round-trip this struct.
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var back Usage
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != u {
		t.Fatalf("Usage did not round-trip JSON: %+v vs %+v", back, u)
	}
}

// TestGCStatsSub: cumulative fields difference, gauges pass through,
// and counter regressions (process restart, runtime quirk) clamp to
// zero instead of going negative.
func TestGCStatsSub(t *testing.T) {
	prev := GCStats{HeapLiveBytes: 10, HeapGoalBytes: 20, PauseTotalNS: 100, GCCPUNS: 900, Cycles: 5, AllocBytes: 1000}
	cur := GCStats{HeapLiveBytes: 30, HeapGoalBytes: 40, PauseTotalNS: 160, GCCPUNS: 1300, Cycles: 7, AllocBytes: 1500}
	d := cur.Sub(prev)
	want := GCStats{HeapLiveBytes: 30, HeapGoalBytes: 40, PauseTotalNS: 60, GCCPUNS: 400, Cycles: 2, AllocBytes: 500}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	if d = prev.Sub(cur); d.PauseTotalNS != 0 || d.GCCPUNS != 0 || d.Cycles != 0 || d.AllocBytes != 0 {
		t.Fatalf("regressed counters not clamped: %+v", d)
	}
}

// TestSamplerRead: a real sampler sees a live heap and counts cycles
// across a forced GC; a nil sampler reads zeros. The runtime reports
// live heap only once a GC cycle has completed (before that it reads 0,
// and whether the process's first cycle has finished is timing), so
// live heap is required after the forced GC, the goal before it.
func TestSamplerRead(t *testing.T) {
	var nilS *Sampler
	if g := nilS.Read(); g != (GCStats{}) {
		t.Fatalf("nil sampler read %+v", g)
	}
	s := NewSampler()
	before := s.Read()
	if before.HeapGoalBytes <= 0 {
		t.Fatalf("implausible heap reading: %+v", before)
	}
	// Force some allocation and a GC cycle, then require the cumulative
	// counters to have advanced.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	runtime.GC()
	after := s.Read()
	if after.HeapLiveBytes <= 0 || after.HeapGoalBytes <= 0 {
		t.Fatalf("implausible heap reading after GC: %+v", after)
	}
	d := after.Sub(before)
	if d.Cycles < 1 {
		t.Fatalf("forced GC not observed: delta %+v", d)
	}
	if d.AllocBytes < 64*(64<<10) {
		t.Fatalf("allocations under-counted: delta %+v", d)
	}
}

// TestSamplerGCCPU: the GC CPU counter never decreases between reads
// and grows across a forced GC that has live heap to mark.
func TestSamplerGCCPU(t *testing.T) {
	s := NewSampler()
	prev := s.Read()
	live := make([][]byte, 0, 256)
	for i := 0; i < 256; i++ {
		live = append(live, make([]byte, 16<<10))
		if i%64 == 63 {
			runtime.GC()
		}
		g := s.Read()
		if g.GCCPUNS < prev.GCCPUNS {
			t.Fatalf("GC CPU went back: %d -> %d ns", prev.GCCPUNS, g.GCCPUNS)
		}
		prev = g
	}
	before := s.Read()
	runtime.GC()
	after := s.Read()
	runtime.KeepAlive(live)
	if after.GCCPUNS <= before.GCCPUNS {
		t.Fatalf("forced GC added no GC CPU: %d -> %d ns", before.GCCPUNS, after.GCCPUNS)
	}
}

// TestSamplerNoGoroutine: the sampler is synchronous — constructing and
// reading one must not start any goroutine (nothing to leak on engine
// Close).
func TestSamplerNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSampler()
	for i := 0; i < 10; i++ {
		s.Read()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("sampler spawned goroutines: %d before, %d after", base, n)
	}
}

package colstore

import (
	"fmt"
	"testing"
)

// TestWordMemo drives the one open-addressed word-code memo (group and
// join memo alike) through clustered collisions, growth and reset: after
// every add exactly one slot per entry is occupied, an entry keeps its
// index across growths, and reset drops entries but not capacity.
func TestWordMemo(t *testing.T) {
	for _, stride := range []int{1, 3} {
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			fill := func(words []uint64, k uint64) uint64 {
				for x := range words {
					words[x] = k*31 + uint64(x)*k
				}
				return MemoHash(words)
			}
			// 40 keys that share one home slot while the table has 64
			// slots (a forced probe chain), then a plain run long enough
			// for several growths.
			var ks []uint64
			probe := make([]uint64, stride)
			for k := uint64(1); len(ks) < 40; k++ {
				if fill(probe, k)&63 == 5 {
					ks = append(ks, k)
				}
			}
			for k := uint64(1) << 40; len(ks) < 1040; k++ {
				ks = append(ks, k)
			}
			var m WordMemo
			m.Reset(stride)
			check := func(n int) {
				t.Helper()
				occupied := 0
				for _, s := range m.slots {
					if s != 0 {
						occupied++
					}
				}
				if m.Entries() != n || occupied != n {
					t.Fatalf("after %d adds: %d entries, %d occupied slots", n, m.Entries(), occupied)
				}
			}
			growths := 0
			for i, k := range ks {
				words := m.Stage()
				h := fill(words, k)
				if e := m.Find(words, h); e != -1 {
					t.Fatalf("key %d found at %d before it was added", i, e)
				}
				size := len(m.slots)
				if e := m.Add(words, h); e != i {
					t.Fatalf("add %d returned index %d", i, e)
				}
				check(i + 1)
				if len(m.slots) != size {
					growths++
					for j, kj := range ks[:i+1] {
						if e := m.Find(probe, fill(probe, kj)); e != j {
							t.Fatalf("after growth to %d slots: key %d found at %d", len(m.slots), j, e)
						}
					}
				}
			}
			if growths < 4 {
				t.Fatalf("only %d growths", growths)
			}
			// A key copied in from elsewhere (the join memo's case) adds
			// like a staged one.
			h := fill(probe, 7<<50)
			if e := m.Add(probe, h); e != len(ks) || m.Find(probe, h) != e {
				t.Fatalf("foreign key landed at %d", e)
			}
			check(len(ks) + 1)

			slotCap, keyCap, size := cap(m.slots), cap(m.keys), len(m.slots)
			m.Reset(stride)
			check(0)
			if cap(m.slots) != slotCap || cap(m.keys) != keyCap || len(m.slots) != size {
				t.Fatal("reset changed capacity")
			}
			if e := m.Find(probe, fill(probe, ks[0])); e != -1 {
				t.Fatalf("reset kept key 0 at %d", e)
			}
			words := m.Stage()
			if e := m.Add(words, fill(words, ks[3])); e != 0 {
				t.Fatalf("first add after reset returned %d", e)
			}
			check(1)
		})
	}
}

// TestWordMemoFind1 holds the one-word probe to Find: same entry for
// every held key, -1 for absent ones, across growths.
func TestWordMemoFind1(t *testing.T) {
	var m WordMemo
	m.Reset(1)
	if m.Find1(7, MemoHash1(7)) != -1 {
		t.Fatal("empty memo found a key")
	}
	for k := uint64(0); k < 500; k++ {
		w := k * 0x9E3779B97F4A7C15
		words := m.Stage()
		words[0] = w
		if h := MemoHash1(w); h != MemoHash(words) {
			t.Fatalf("MemoHash1(%d) differs from MemoHash", w)
		} else if m.Add(words, h) != int(k) {
			t.Fatalf("add %d", k)
		}
		for j := uint64(0); j <= k+1; j++ {
			wj := j * 0x9E3779B97F4A7C15
			want := int(j)
			if j > k {
				want = -1
			}
			if got := m.Find1(wj, MemoHash1(wj)); got != want {
				t.Fatalf("after %d adds: Find1(key %d) = %d, want %d", k+1, j, got, want)
			}
		}
	}
}

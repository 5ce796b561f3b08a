package storage

import "testing"

// TestSliceRanges checks the contiguous cover property for every
// (n, parts) in a small grid: ranges tile [0, n) exactly, in order.
func TestSliceRanges(t *testing.T) {
	for n := 0; n <= 67; n++ {
		for parts := 1; parts <= 9; parts++ {
			rs := SliceRanges(n, parts)
			if len(rs) != parts {
				t.Fatalf("n=%d parts=%d: %d ranges", n, parts, len(rs))
			}
			pos := 0
			for i, r := range rs {
				if r.Lo != pos || r.Hi < r.Lo {
					t.Fatalf("n=%d parts=%d range %d: [%d,%d) after pos %d", n, parts, i, r.Lo, r.Hi, pos)
				}
				pos = r.Hi
			}
			if pos != n {
				t.Fatalf("n=%d parts=%d: ranges cover %d rows", n, parts, pos)
			}
		}
	}
	if rs := SliceRanges(10, 0); len(rs) != 1 || rs[0] != (SliceRange{0, 10}) {
		t.Fatalf("parts=0 must collapse to one full range, got %v", rs)
	}
	// The one worker clamp: a single part below 2·threshold rows, never
	// more parts than n/threshold, never fewer than one.
	for _, c := range []struct{ n, parts, minRows, want int }{
		{0, 4, 512, 1},    // empty batch
		{1023, 4, 512, 1}, // n < 2·threshold
		{1024, 4, 512, 2}, // exactly two full parts
		{8192, 8, 512, 8}, // parts ≤ n/threshold holds with room
		{2047, 8, 512, 3}, // clamped to n/threshold
		{8192, 1, 512, 1}, // serial stays serial
		{8192, 0, 512, 1}, // unresolved parts
		{3, 4, 1, 3},      // threshold 1: one row per part
		{1, 4, 1, 1},      // a single row is never split
		{100, 4, 0, 4},    // non-positive threshold behaves as 1
	} {
		if got := ClampParts(c.n, c.parts, c.minRows); got != c.want {
			t.Fatalf("ClampParts(%d, %d, %d) = %d, want %d", c.n, c.parts, c.minRows, got, c.want)
		}
	}
}

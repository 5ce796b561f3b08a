package retry

import (
	"errors"
	"testing"
	"time"
)

// TestBackoffLadder pins the no-jitter ladder the serial part retry
// relies on: 0, base, 2·base, … capped.
func TestBackoffLadder(t *testing.T) {
	p := Policy{Attempts: 6, Base: time.Millisecond, Cap: 8 * time.Millisecond}
	want := []time.Duration{0, time.Millisecond, 2 * time.Millisecond,
		4 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if got := p.Backoff(0, i+1); got != w {
			t.Fatalf("attempt %d: backoff %v, want %v", i+1, got, w)
		}
	}
	if got := (Policy{Attempts: 3}).Backoff(7, 3); got != 0 {
		t.Fatalf("zero Base must never sleep, got %v", got)
	}
}

// TestBackoffJitterDeterministic checks jittered backoffs are a pure
// function of (seed, site, attempt) and stay within [50%, 100%] of the
// nominal ladder.
func TestBackoffJitterDeterministic(t *testing.T) {
	p := Policy{Attempts: 4, Base: 4 * time.Millisecond, Cap: 32 * time.Millisecond, Seed: 99}
	for site := uint64(0); site < 8; site++ {
		for attempt := 2; attempt <= 4; attempt++ {
			a := p.Backoff(site, attempt)
			b := p.Backoff(site, attempt)
			if a != b {
				t.Fatalf("site %d attempt %d: %v != %v (non-deterministic)", site, attempt, a, b)
			}
			nominal := Policy{Attempts: p.Attempts, Base: p.Base, Cap: p.Cap}.Backoff(site, attempt)
			if a < nominal/2 || a > nominal {
				t.Fatalf("site %d attempt %d: jittered %v outside [%v, %v]", site, attempt, a, nominal/2, nominal)
			}
		}
	}
	// Different sites should not all collapse onto one duration.
	seen := map[time.Duration]bool{}
	for site := uint64(0); site < 32; site++ {
		seen[p.Backoff(site, 2)] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced identical backoffs across 32 sites")
	}
}

// TestDo checks the attempt loop: stops on first success, returns the
// last error on exhaustion, resolves Attempts 0 to one try.
func TestDo(t *testing.T) {
	calls := 0
	err := Policy{Attempts: 5}.Do(0, func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return errors.New("not yet")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do: err=%v calls=%d, want nil/3", err, calls)
	}

	boom := errors.New("boom")
	calls = 0
	if err := (Policy{Attempts: 2}).Do(0, func(int) error { calls++; return boom }); !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("exhausted Do: err=%v calls=%d, want boom/2", err, calls)
	}

	calls = 0
	if err := (Policy{}).Do(0, func(int) error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("zero-value Do: err=%v calls=%d, want boom/1", err, calls)
	}
}

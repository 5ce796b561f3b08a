// Package retry provides the small bounded-backoff policy behind the
// runtime's one containment ladder (core/pool.go scatter): the redo of
// a failed part of a parallel batch or reclassification pass. The
// policy is deliberately tiny — attempts, a doubling backoff between a
// base and a cap, and optional deterministic jitter — because the
// ladder it backs must stay replayable: given the same seed and site, a
// retried schedule sleeps the same intervals on every run.
package retry

import (
	"time"

	"fluodb/internal/bootstrap"
)

// Policy describes one bounded retry ladder.
type Policy struct {
	// Attempts is the total number of tries (≥1; 0 resolves to 1).
	Attempts int
	// Base is the sleep before the second attempt; each later attempt
	// doubles it up to Cap. Zero means no sleeping at all.
	Base time.Duration
	// Cap bounds the doubled backoff (0 = uncapped).
	Cap time.Duration
	// Seed, when nonzero, enables deterministic jitter: each sleep is
	// scaled into [50%, 100%] of its nominal value by a pure hash of
	// (Seed, site, attempt). Zero keeps the exact nominal backoff.
	Seed uint64
}

// attempts resolves the zero value.
func (p Policy) attempts() int {
	if p.Attempts <= 0 {
		return 1
	}
	return p.Attempts
}

// Backoff returns the sleep to take before the given 1-based attempt at
// the given site (attempt 1 never sleeps). Deterministic: equal
// (Policy, site, attempt) yield equal durations.
func (p Policy) Backoff(site uint64, attempt int) time.Duration {
	if attempt <= 1 || p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 2; i < attempt; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if p.Seed != 0 {
		// Scale into [50%, 100%]: enough spread to de-synchronize
		// retries, never longer than the nominal ladder.
		h := bootstrap.Mix64(p.Seed ^ site ^ uint64(attempt)*0x9E3779B97F4A7C15)
		frac := 0.5 + 0.5*float64(h>>11)/(1<<53)
		d = time.Duration(float64(d) * frac)
	}
	return d
}

// Do runs fn up to p.Attempts times, sleeping Backoff(site, attempt)
// before each retry, until fn returns nil. It returns the last error
// (nil on success). fn receives the 1-based attempt number.
func (p Policy) Do(site uint64, fn func(attempt int) error) error {
	var err error
	for attempt := 1; attempt <= p.attempts(); attempt++ {
		if d := p.Backoff(site, attempt); d > 0 {
			time.Sleep(d)
		}
		if err = fn(attempt); err == nil {
			return nil
		}
	}
	return err
}

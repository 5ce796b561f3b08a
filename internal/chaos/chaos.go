// Package chaos provides deterministic fault injection for the query
// runtime. An Injector decides — as a pure function of its seed and the
// fault site — whether a worker panic, straggler delay, stage
// corruption or segment-cache drop fires at a given (table, batch,
// worker) coordinate. Determinism is the point: a fault schedule is
// replayable from its seed alone, so a chaos soak that finds a
// divergence hands the exact failing schedule to the developer, and the
// engine's own failure-recovery replay re-encounters (and re-contains)
// the same faults at the same sites.
//
// The injector only *decides*; the runtime *performs* the fault (panics
// on the worker, sleeps, flips a row, drops a cache) so that injection
// sites stay inside the code paths whose containment they test.
package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"fluodb/internal/bootstrap"
)

// Kind identifies one class of injected fault.
type Kind int

const (
	// KindNone reports "no fault at this site".
	KindNone Kind = iota
	// KindPanic makes a pool worker panic mid-fold.
	KindPanic
	// KindStraggler delays a worker, simulating a stuck or slow part.
	KindStraggler
	// KindCorrupt poisons a worker's private stage before it fails.
	KindCorrupt
	// KindSegSeal drops a block's columnar segment cache between batches,
	// forcing an incremental re-encode plus kernel recompilation on the
	// segment-seal seam.
	KindSegSeal

	numKinds int = iota
)

// Kinds lists every fault kind (KindNone excluded) in Kind order — the
// index order of Counts.
func Kinds() []Kind {
	ks := make([]Kind, 0, numKinds-1)
	for k := KindPanic; int(k) < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// String names the fault kind for traces and soak reports.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindStraggler:
		return "straggler"
	case KindCorrupt:
		return "corrupt"
	case KindSegSeal:
		return "segseal"
	}
	return fmt.Sprintf("chaos.Kind(%d)", int(k))
}

// Config sets the per-site firing probabilities of each fault class.
// Probabilities are independent; at a site where several classes fire,
// the injector reports the most disruptive one (panic > corrupt >
// straggler).
type Config struct {
	// Seed drives every decision. Two injectors with equal Config make
	// identical decisions at every site.
	Seed uint64
	// PanicProb is the per-(table,batch,worker) probability of a worker
	// panic during a part fold.
	PanicProb float64
	// StragglerProb is the probability of a straggler delay at a fold
	// site.
	StragglerProb float64
	// CorruptProb is the probability that a worker's stage is corrupted
	// before its part fails.
	CorruptProb float64
	// SegSealDropProb is the per-(table,batch) probability that a
	// block's columnar segment cache is dropped before the batch feeds,
	// exercising incremental re-encode + kernel recompile mid-query.
	SegSealDropProb float64
	// StragglerDelay is how long an injected straggler sleeps
	// (default 100µs — long enough to reorder goroutine scheduling,
	// short enough for thousand-schedule soaks).
	StragglerDelay time.Duration
}

// Injector is a seeded, concurrency-safe fault oracle. The zero value
// and the nil injector never fire.
type Injector struct {
	cfg    Config
	counts [numKinds]atomic.Int64
}

// New builds an injector for the given config.
func New(cfg Config) *Injector {
	if cfg.StragglerDelay <= 0 {
		cfg.StragglerDelay = 100 * time.Microsecond
	}
	return &Injector{cfg: cfg}
}

// Seed reports the injector's seed (for trace annotations).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.cfg.Seed
}

// decide hashes the site into [0,1) and compares against prob. The
// site must already encode the fault class so independent classes draw
// independent variates.
func (in *Injector) decide(site uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	u := float64(bootstrap.Mix64(in.cfg.Seed^site)>>11) / (1 << 53)
	return u < prob
}

// Per-class site salts. Distinct odd constants keep the per-class
// decision streams independent even at identical coordinates.
const (
	saltPanic     = 0x9E3779B97F4A7C15
	saltStraggler = 0xC2B2AE3D27D4EB4F
	saltCorrupt   = 0x165667B19E3779F9
	saltSegSeal   = 0xA0761D6478BD642F
)

// siteHash folds a fault-site coordinate into one word. name
// disambiguates tables (or blocks) sharing numeric coordinates.
func siteHash(salt uint64, name string, a, b int) uint64 {
	h := salt
	for i := 0; i < len(name); i++ {
		h = bootstrap.Mix64(h ^ uint64(name[i]))
	}
	h = bootstrap.Mix64(h ^ uint64(a)<<1)
	return bootstrap.Mix64(h ^ uint64(b)<<1 ^ 0xB5)
}

// WorkerFault reports the fault (if any) to inject into worker w's part
// of the batch starting at global row index start of table. Repeated
// calls at the same coordinate give the same answer; the serial retry
// path never calls it, so a contained fault does not re-fire during the
// bit-identical redo.
func (in *Injector) WorkerFault(table string, start, w int) Kind {
	if in == nil {
		return KindNone
	}
	switch {
	case in.decide(siteHash(saltPanic, table, start, w), in.cfg.PanicProb):
		in.counts[KindPanic].Add(1)
		return KindPanic
	case in.decide(siteHash(saltCorrupt, table, start, w), in.cfg.CorruptProb):
		in.counts[KindCorrupt].Add(1)
		return KindCorrupt
	case in.decide(siteHash(saltStraggler, table, start, w), in.cfg.StragglerProb):
		in.counts[KindStraggler].Add(1)
		return KindStraggler
	}
	return KindNone
}

// SegSealDrop reports whether the columnar segment cache of (table,
// batch) should be dropped before the batch feeds.
func (in *Injector) SegSealDrop(table string, batch int) bool {
	if in == nil {
		return false
	}
	if in.decide(siteHash(saltSegSeal, table, batch, 0), in.cfg.SegSealDropProb) {
		in.counts[KindSegSeal].Add(1)
		return true
	}
	return false
}

// Sleep performs an injected straggler delay.
func (in *Injector) Sleep() {
	if in == nil {
		return
	}
	time.Sleep(in.cfg.StragglerDelay)
}

// Counts returns how many faults of each kind have fired, indexed by
// Kind.
func (in *Injector) Counts() [numKinds]int64 {
	var out [numKinds]int64
	if in == nil {
		return out
	}
	for k := 0; k < numKinds; k++ {
		out[k] = in.counts[k].Load()
	}
	return out
}

// Fired reports the total number of injected faults.
func (in *Injector) Fired() int64 {
	var n int64
	for _, c := range in.Counts() {
		n += c
	}
	return n
}

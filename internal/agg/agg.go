// Package agg implements FluoDB's aggregate functions.
//
// Every aggregate is expressed as a mergeable, weighted State:
//
//   - Add(v, w) folds one input value with weight w. Weights serve two
//     roles in G-OLA: the multiset multiplicity m = k/i of §2.2 (applied at
//     report time through the Result scale factor instead, so states stay
//     scale-free), and the Poisson(1) multiplicities of poissonized
//     bootstrap trials. Weight 0 means "not sampled in this trial".
//   - Merge(other) combines two partial states (partition parallelism).
//   - Result(scale) finalizes, scaling total weight by `scale`. Scale
//     affects SUM and COUNT (extensive aggregates) and is a no-op for
//     intensive ones (AVG, MIN, MAX, STDDEV, quantiles).
//   - Clone() deep-copies, so a snapshot can fold the current uncertain
//     set into a copy of the deterministic state without disturbing it.
//
// User-defined aggregates implement Func and are added via Register.
package agg

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"fluodb/internal/types"
)

// State is a partial aggregate.
type State interface {
	// Add folds value v with weight w (w >= 0). NULL inputs are ignored,
	// as in SQL, except COUNT(*) which the executor feeds non-null tokens.
	Add(v types.Value, w float64)
	// Merge folds another state of the same dynamic type into this one.
	Merge(other State)
	// Result finalizes with the given extensive-weight scale factor.
	Result(scale float64) types.Value
	// Clone deep-copies the state.
	Clone() State
}

// Func describes an aggregate function.
type Func interface {
	// Name is the upper-case SQL name.
	Name() string
	// NewState creates an empty state. params are the constant arguments
	// after the aggregated expression (e.g. the q of QUANTILE(x, q)).
	NewState(params []types.Value) (State, error)
}

// registry of aggregate functions (built-ins plus UDAFs).
var (
	regMu    sync.RWMutex
	registry = map[string]Func{}
)

// Register adds an aggregate function (or UDAF). It overwrites any
// existing function with the same (case-insensitive) name.
func Register(f Func) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[strings.ToUpper(f.Name())] = f
}

// Lookup resolves an aggregate function by name.
func Lookup(name string) (Func, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[strings.ToUpper(name)]
	return f, ok
}

// IsAggregate reports whether name is a registered aggregate.
func IsAggregate(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// simpleFunc adapts a state constructor into a Func.
type simpleFunc struct {
	name string
	mk   func(params []types.Value) (State, error)
}

func (f *simpleFunc) Name() string { return f.name }
func (f *simpleFunc) NewState(params []types.Value) (State, error) {
	return f.mk(params)
}

// NewFunc builds a Func from a name and a state constructor; exported for
// UDAF authors.
func NewFunc(name string, mk func(params []types.Value) (State, error)) Func {
	return &simpleFunc{name: strings.ToUpper(name), mk: mk}
}

func noParams(name string, params []types.Value) error {
	if len(params) != 0 {
		return fmt.Errorf("agg: %s takes exactly one argument", name)
	}
	return nil
}

func init() {
	Register(NewFunc("COUNT", func(p []types.Value) (State, error) {
		if err := noParams("COUNT", p); err != nil {
			return nil, err
		}
		return &countState{}, nil
	}))
	Register(NewFunc("SUM", func(p []types.Value) (State, error) {
		if err := noParams("SUM", p); err != nil {
			return nil, err
		}
		return &sumState{}, nil
	}))
	Register(NewFunc("AVG", func(p []types.Value) (State, error) {
		if err := noParams("AVG", p); err != nil {
			return nil, err
		}
		return &avgState{}, nil
	}))
	Register(NewFunc("MIN", func(p []types.Value) (State, error) {
		if err := noParams("MIN", p); err != nil {
			return nil, err
		}
		return &minMaxState{min: true}, nil
	}))
	Register(NewFunc("MAX", func(p []types.Value) (State, error) {
		if err := noParams("MAX", p); err != nil {
			return nil, err
		}
		return &minMaxState{}, nil
	}))
	mkStd := func(sample bool, variance bool) func(p []types.Value) (State, error) {
		return func(p []types.Value) (State, error) {
			if len(p) != 0 {
				return nil, fmt.Errorf("agg: STDDEV/VARIANCE take exactly one argument")
			}
			return &varState{sample: sample, variance: variance}, nil
		}
	}
	Register(NewFunc("STDDEV", mkStd(true, false)))
	Register(NewFunc("STDEV", mkStd(true, false))) // paper's spelling
	Register(NewFunc("STDDEV_POP", mkStd(false, false)))
	Register(NewFunc("VARIANCE", mkStd(true, true)))
	Register(NewFunc("VAR_POP", mkStd(false, true)))
	Register(NewFunc("QUANTILE", func(p []types.Value) (State, error) {
		if len(p) != 1 {
			return nil, fmt.Errorf("agg: QUANTILE(x, q) takes exactly two arguments")
		}
		q, ok := p[0].AsFloat()
		if !ok || q < 0 || q > 1 {
			return nil, fmt.Errorf("agg: QUANTILE fraction must be in [0,1], got %v", p[0])
		}
		return newTDigestState(q), nil
	}))
	Register(NewFunc("PERCENTILE", func(p []types.Value) (State, error) {
		if len(p) != 1 {
			return nil, fmt.Errorf("agg: PERCENTILE(x, pct) takes exactly two arguments")
		}
		q, ok := p[0].AsFloat()
		if !ok || q < 0 || q > 100 {
			return nil, fmt.Errorf("agg: PERCENTILE must be in [0,100], got %v", p[0])
		}
		return newTDigestState(q / 100), nil
	}))
	Register(NewFunc("MEDIAN", func(p []types.Value) (State, error) {
		if err := noParams("MEDIAN", p); err != nil {
			return nil, err
		}
		return newTDigestState(0.5), nil
	}))
}

// Pre-accumulated state constructors. The online engine keeps the
// bootstrap replicas of CLT-estimable aggregates (SUM/COUNT/AVG) as flat
// float banks instead of per-trial State sets and finalizes them as
// floats; these constructors materialize the State one bank cell stands
// for, which is what the engine's snapshot-evaluation oracle test folds
// into to pin the float path to State semantics.

// CountStateOf returns a COUNT state carrying total weight w.
func CountStateOf(w float64) State { return &countState{w: w} }

// SumStateOf returns a SUM state carrying the weighted sum; seen
// distinguishes an empty state (NULL result) from a zero-valued sum.
func SumStateOf(sum float64, seen bool) State { return &sumState{sum: sum, seen: seen} }

// AvgStateOf returns an AVG state carrying the weighted sum and total
// weight.
func AvgStateOf(sum, w float64) State { return &avgState{sum: sum, w: w} }

// --- COUNT ---

type countState struct{ w float64 }

func (s *countState) Add(v types.Value, w float64) {
	if v.IsNull() {
		return
	}
	s.w += w
}
func (s *countState) Merge(o State) { s.w += o.(*countState).w }
func (s *countState) Result(scale float64) types.Value {
	return types.NewFloat(s.w * scale)
}
func (s *countState) Clone() State { c := *s; return &c }

// --- SUM ---

type sumState struct {
	sum  float64
	seen bool
}

func (s *sumState) Add(v types.Value, w float64) {
	f, ok := v.AsFloat()
	if !ok {
		return
	}
	s.sum += f * w
	s.seen = true
}
func (s *sumState) Merge(o State) {
	os := o.(*sumState)
	s.sum += os.sum
	s.seen = s.seen || os.seen
}
func (s *sumState) Result(scale float64) types.Value {
	if !s.seen {
		return types.Null
	}
	return types.NewFloat(s.sum * scale)
}
func (s *sumState) Clone() State { c := *s; return &c }

// --- AVG ---

type avgState struct {
	sum, w float64
}

func (s *avgState) Add(v types.Value, w float64) {
	f, ok := v.AsFloat()
	if !ok {
		return
	}
	s.sum += f * w
	s.w += w
}
func (s *avgState) Merge(o State) {
	os := o.(*avgState)
	s.sum += os.sum
	s.w += os.w
}
func (s *avgState) Result(scale float64) types.Value {
	if s.w == 0 {
		return types.Null
	}
	return types.NewFloat(s.sum / s.w)
}
func (s *avgState) Clone() State { c := *s; return &c }

// --- MIN / MAX ---

type minMaxState struct {
	min  bool
	best types.Value
	seen bool
}

func (s *minMaxState) Add(v types.Value, w float64) {
	if v.IsNull() || w <= 0 {
		return
	}
	if !s.seen {
		s.best = v
		s.seen = true
		return
	}
	c := types.Compare(v, s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
	}
}
func (s *minMaxState) Merge(o State) {
	os := o.(*minMaxState)
	if os.seen {
		s.Add(os.best, 1)
	}
}
func (s *minMaxState) Result(scale float64) types.Value {
	if !s.seen {
		return types.Null
	}
	return s.best
}
func (s *minMaxState) Clone() State { c := *s; return &c }

// --- STDDEV / VARIANCE ---
//
// Weighted moments: w, Σwx, Σwx². Sample variance uses the frequency-
// weight correction (w-1 denominator).

type varState struct {
	sample   bool
	variance bool
	w        float64
	sum      float64
	sumsq    float64
}

func (s *varState) Add(v types.Value, w float64) {
	f, ok := v.AsFloat()
	if !ok {
		return
	}
	s.w += w
	s.sum += f * w
	s.sumsq += f * f * w
}
func (s *varState) Merge(o State) {
	os := o.(*varState)
	s.w += os.w
	s.sum += os.sum
	s.sumsq += os.sumsq
}
func (s *varState) Result(scale float64) types.Value {
	denom := s.w
	if s.sample {
		denom = s.w - 1
	}
	if denom <= 0 {
		return types.Null
	}
	mean := s.sum / s.w
	num := s.sumsq - mean*s.sum
	if num < 0 { // floating point guard
		num = 0
	}
	v := num / denom
	if s.variance {
		return types.NewFloat(v)
	}
	return types.NewFloat(math.Sqrt(v))
}
func (s *varState) Clone() State { c := *s; return &c }

// --- DISTINCT wrapper ---

// distinctState deduplicates inputs before delegating. Duplicate
// detection uses the value's canonical key. Weights collapse to 1 for the
// first occurrence (DISTINCT semantics); extensive scaling is therefore
// not applied (scale forced to 1) because duplicating a sample does not
// duplicate its distinct values.
type distinctState struct {
	inner State
	seen  map[string]bool
}

// NewDistinct wraps a state with DISTINCT deduplication.
func NewDistinct(inner State) State {
	return &distinctState{inner: inner, seen: map[string]bool{}}
}

func (s *distinctState) Add(v types.Value, w float64) {
	if v.IsNull() || w <= 0 {
		return
	}
	key := types.KeyString1(v)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.inner.Add(v, 1)
}
func (s *distinctState) Merge(o State) {
	os := o.(*distinctState)
	for k := range os.seen {
		if !s.seen[k] {
			s.seen[k] = true
		}
	}
	// Values already folded into os.inner may double-count across parts
	// for non-COUNT aggregates; FluoDB only parallelizes DISTINCT via
	// key-partitioned streams, so Merge only needs the union of keys for
	// COUNT. For COUNT the result derives from len(seen), handled below.
}
func (s *distinctState) Result(scale float64) types.Value {
	if c, ok := s.inner.(*countState); ok {
		_ = c
		return types.NewFloat(float64(len(s.seen)))
	}
	return s.inner.Result(1)
}
func (s *distinctState) Clone() State {
	seen := make(map[string]bool, len(s.seen))
	for k := range s.seen {
		seen[k] = true
	}
	return &distinctState{inner: s.inner.Clone(), seen: seen}
}

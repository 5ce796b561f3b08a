package core

import (
	"math"
	"unsafe"

	"fluodb/internal/bootstrap"
)

// Moment lanes (DESIGN.md §7). A banked group's Poisson-bootstrap lane
// for one bank stream grows, per batch, by Σ_r w_rj·x_r/p over the
// batch's sampled rows r, where x_r is the row's stream value (the
// gate, 0 or 1, for a W stream; the gated argument for a V stream) and
// the w_rj are independent Poisson(1) draws. Given the rows, that
// increment has mean Σx/p and, across the group's distinct streams,
// covariance Σ x_k·x_l / p², independently in every trial. So once a
// group is large the fold stops adding T lanes per row: it keeps the
// batch's exact first and second moments of the group's streams, and at
// the end of the batch's feed the controller adds one seeded
// multivariate-normal increment per trial with exactly those moments.
//
// A lane's deviation is then the sum of its group's real Poisson terms
// over at least momentMin rows and the normal increments. Both have the
// same mean and covariance as the Poisson lanes they replace; they
// differ in the higher cumulants only. The standardized skewness of a
// Poisson-weighted sum of n rows is Σx³/(Σx²)^{3/2}, about 1/√n for rows
// of comparable size: 1/16 at n = 256. By the Cornish–Fisher expansion
// that moves the 2.5% and 97.5% quantiles of a lane by about γ(z²−1)/6
// ≈ 0.03 standard deviations — well inside the Monte-Carlo error of a
// percentile interval read from T = 100 trials. Below momentMin the
// lanes stay real: small groups are exactly where the bootstrap's
// skewness matters.
//
// What keeps real lanes: groups that had folded fewer than momentMin
// sampled rows when the batch's feed started (and every group the feed
// creates), cached uncertain rows (the snapshot regenerates their
// weights), rows reclassified or evicted into the table (they fold
// outside the feed), and non-banked blocks.
//
// The mode is decided on the controller before the feed, from the
// runner table's counts, and stays fixed until the draw: serial folds
// read the runner table's set, and a worker stage resolves each of its
// entries against the runner table (read-only inside the scatter
// barrier), so how a batch is split never changes a group's mode. The
// draw is a pure function of (engine seed, table, block, group key
// hash, batch index, trial), so replay and resume redraw it.

// momentMin is M, the sampled rows a group must have folded by the start
// of a batch's feed before that feed folds it into moments (see above).
const momentMin = 256

// bankStream names one physical replica-bank stream: aggregate agg's V
// cells when v, its W cells otherwise.
type bankStream struct {
	agg int
	v   bool
}

// momentAcc is one moment-mode group's sums over the batch's sampled
// rows: rows counts rows with a non-zero stream value, s[k] = Σ x_k, and
// c holds Σ x_k·x_l for k ≤ l, row-major over the upper triangle.
type momentAcc struct {
	rows int
	s    []float64
	c    []float64
}

func newMomentAcc(k int) *momentAcc {
	buf := make([]float64, k+k*(k+1)/2)
	return &momentAcc{s: buf[:k:k], c: buf[k:]}
}

// momentAccBytes is the ledger charge of one accumulator over k streams.
func momentAccBytes(k int) int64 {
	return int64(unsafe.Sizeof(momentAcc{})) + 8*int64(k+k*(k+1)/2) + mapSlotBytes
}

// mapSlotBytes estimates one map slot keyed by an entry pointer.
const mapSlotBytes = 16

// add folds one row's stream values x (len(s) of them). A row whose
// every value is zero (every argument NULL) adds nothing, as it adds
// nothing to a real lane.
func (a *momentAcc) add(x []float64) {
	nz := false
	for _, v := range x {
		nz = nz || v != 0
	}
	if !nz {
		return
	}
	a.rows++
	k := 0
	for i, xi := range x {
		a.s[i] += xi
		for _, xj := range x[i:] {
			a.c[k] += xi * xj
			k++
		}
	}
}

// addWV is add for a one-source columnar fold's two streams, W (value
// 1) and V (value f): the same float operations, in the same order.
func (a *momentAcc) addWV(f float64) {
	a.rows++
	a.s[0]++
	a.s[1] += f
	a.c[0]++
	a.c[1] += f
	a.c[2] += f * f
}

// addW is add for a one-source columnar fold's lone W stream (all
// COUNTs).
func (a *momentAcc) addW() {
	a.rows++
	a.s[0]++
	a.c[0]++
}

func (a *momentAcc) merge(o *momentAcc) {
	a.rows += o.rows
	for i, v := range o.s {
		a.s[i] += v
	}
	for i, v := range o.c {
		a.c[i] += v
	}
}

func (a *momentAcc) reset() {
	a.rows = 0
	clear(a.s)
	clear(a.c)
}

// momentSide is a banked table's sparse moment storage: only groups in
// moment mode hold an accumulator, so the many small groups of a
// grouped block pay nothing.
type momentSide struct {
	// streams are the distinct physical bank streams a fold writes (the
	// runner table's alias owners), ordered by aggregate, W before V;
	// wPos/vPos map aggregate i to its streams' positions (-1 when it
	// owns none). x is one row's stream values.
	streams    []bankStream
	wPos, vPos []int
	x          []float64
	// on is set for the length of a batch's feed.
	on bool
	// accs maps an entry to its accumulator. On a runner table its keys
	// are the moment-mode groups (order lists them, in the order they
	// entered it); on a stage table a nil value records an entry
	// resolved to real lanes.
	accs  map[*onlineEntry]*momentAcc
	order []*onlineEntry
	// home is a stage table's runner table, whose set decides the mode;
	// free recycles a stage's accumulators across batches.
	home *onlineTable
	free []*momentAcc
	// lastE/lastA memoize the latest resolution (a run of one group's
	// rows resolves once).
	lastE *onlineEntry
	lastA *momentAcc
	// draw is the runner table's draw scratch.
	draw momentDraw
}

// newMomentSide lays out the streams of a runner table with naggs
// aggregates through its read aliases.
func newMomentSide(t *onlineTable, naggs int) *momentSide {
	m := &momentSide{wPos: make([]int, naggs), vPos: make([]int, naggs),
		accs: map[*onlineEntry]*momentAcc{}}
	for i := 0; i < naggs; i++ {
		m.wPos[i], m.vPos[i] = -1, -1
		if t.bankW(i) == i {
			m.wPos[i] = len(m.streams)
			m.streams = append(m.streams, bankStream{agg: i})
		}
		if t.cltKinds[i] != cltCount && t.bankV(i) == i {
			m.vPos[i] = len(m.streams)
			m.streams = append(m.streams, bankStream{agg: i, v: true})
		}
	}
	m.x = make([]float64, len(m.streams))
	return m
}

// stageValue records aggregate i's gated input of the row being folded
// into x: f for a V stream, 1 for a W stream, when ok; zeros otherwise.
func (m *momentSide) stageValue(i int, f float64, ok bool) {
	w, v := 0.0, 0.0
	if ok {
		w, v = 1, f
	}
	if p := m.wPos[i]; p >= 0 {
		m.x[p] = w
	}
	if p := m.vPos[i]; p >= 0 {
		m.x[p] = v
	}
}

// momentOf returns e's accumulator when the feed in progress folds e
// into moments, nil when e keeps real lanes (or no feed is in progress).
func (t *onlineTable) momentOf(e *onlineEntry) *momentAcc {
	m := t.mom
	if m == nil || !m.on {
		return nil
	}
	if e == m.lastE {
		return m.lastA
	}
	a, ok := m.accs[e]
	if !ok && m.home != nil {
		// A stage entry: its group's mode is the runner entry's.
		h := m.home
		if he := h.find(e.hash, e.key, keyCols(len(e.key))); he != nil && h.mom.accs[he] != nil {
			if n := len(m.free); n > 0 {
				a, m.free = m.free[n-1], m.free[:n-1]
			} else {
				a = newMomentAcc(len(m.streams))
				t.bytes += momentAccBytes(len(m.streams))
			}
		}
		m.accs[e] = a
	}
	m.lastE, m.lastA = e, a
	return a
}

// beginMoments opens the batch's feed on the runner table: every group
// that has folded at least momentMin sampled rows by now folds this
// feed into moments. Controller-only, before any worker is submitted.
func (r *blockRunner) beginMoments() {
	t := r.tab
	if !t.banked || t.trials == 0 {
		return
	}
	m := t.mom
	if m == nil {
		m = newMomentSide(t, len(r.b.Aggs))
		t.mom = m
	}
	for _, e := range t.entries {
		if e.ns < momentMin {
			continue
		}
		if _, ok := m.accs[e]; !ok {
			m.accs[e] = newMomentAcc(len(m.streams))
			m.order = append(m.order, e)
			t.bytes += momentAccBytes(len(m.streams))
		}
	}
	m.on = len(m.order) > 0
	m.lastE, m.lastA = nil, nil
}

// stageMoments opens a worker stage's feed against the runner table's
// set (read-only: the controller waits at the barrier).
func (t *onlineTable) stageMoments(home *onlineTable) {
	hm := home.mom
	if hm == nil || !hm.on {
		return
	}
	m := t.mom
	if m == nil {
		m = &momentSide{streams: hm.streams, wPos: hm.wPos, vPos: hm.vPos,
			x: make([]float64, len(hm.streams)), accs: map[*onlineEntry]*momentAcc{}}
		t.mom = m
	}
	m.home, m.on = home, true
	m.lastE, m.lastA = nil, nil
}

// mergeMoments adds stage entry o's batch moments into runner entry e's.
func (t *onlineTable) mergeMoments(e *onlineEntry, o *onlineTable, oe *onlineEntry) {
	if o.mom == nil || !o.mom.on {
		return
	}
	if a := o.mom.accs[oe]; a != nil {
		t.mom.accs[e].merge(a)
	}
}

// resetStage closes a stage's feed: accumulators return to the free
// list and the runner table is released.
func (m *momentSide) resetStage() {
	for e, a := range m.accs {
		if a != nil {
			a.reset()
			m.free = append(m.free, a)
		}
		delete(m.accs, e)
	}
	m.home, m.on = nil, false
	m.lastE, m.lastA = nil, nil
}

// drawMoments closes batch bi's feed on the runner table: every
// moment-mode group that folded a row adds one seeded multivariate-
// normal increment per trial to its bank streams, with the batch's
// moments, and its accumulator clears.
func (r *blockRunner) drawMoments(bi int) {
	m := r.tab.mom
	if m == nil || !m.on {
		return
	}
	m.on = false
	m.lastE, m.lastA = nil, nil
	invP := r.ts.wlut[1]
	base := bootstrap.Mix64(r.ts.weightBase ^ momentSalt ^ uint64(r.b.ID))
	for _, e := range m.order {
		a := m.accs[e]
		if a.rows == 0 {
			continue
		}
		key := bootstrap.Mix64(bootstrap.Mix64(base^e.hash) + uint64(bi))
		m.draw.draw(r.tab, e, m.streams, a, invP, key)
		a.reset()
	}
}

// momentSalt separates the moment draws' hash keys from the weight
// stream's.
const momentSalt = 0x6d6f6d656e74

// momentDraw is the scratch of one group's draw.
type momentDraw struct {
	rep  []int     // stream k's representative among the distinct streams
	dist []int     // the distinct streams' indexes
	mu   []float64 // distinct stream means
	l    []float64 // lower Cholesky factor of their covariance, row-major
	z    []float64
}

// draw adds a's increments to e's banks. Streams whose sums show them
// identical row for row (Σ(x_k − x_l)² = 0: equal sums and cross sums)
// share one draw, so a table that writes twin streams (the row path
// without read aliases) and one that writes each once draw the same
// values.
func (d *momentDraw) draw(t *onlineTable, e *onlineEntry, streams []bankStream, a *momentAcc, invP float64, key uint64) {
	k := len(streams)
	tri := func(i, j int) int { return i*k - i*(i-1)/2 + (j - i) } // i ≤ j
	d.rep, d.dist = d.rep[:0], d.dist[:0]
	for i := 0; i < k; i++ {
		rep := -1
		for q, j := range d.dist {
			if a.s[j] == a.s[i] && a.c[tri(j, j)] == a.c[tri(i, i)] && a.c[tri(j, i)] == a.c[tri(j, j)] {
				rep = q
				break
			}
		}
		if rep < 0 {
			rep = len(d.dist)
			d.dist = append(d.dist, i)
		}
		d.rep = append(d.rep, rep)
	}
	n := len(d.dist)
	d.mu = growFloats(d.mu, n)
	d.l = growFloats(d.l, n*n)
	d.z = growFloats(d.z, n)
	clear(d.l)
	inv2 := invP * invP
	for p, i := range d.dist {
		d.mu[p] = a.s[i] * invP
	}
	// Cholesky of the covariance c·(1/p)². It is positive semi-definite;
	// a direction with no residual variance (a stream proportional to
	// another) gets a zero column.
	for p := 0; p < n; p++ {
		for q := 0; q <= p; q++ {
			i, j := d.dist[q], d.dist[p]
			sum := a.c[tri(i, j)] * inv2
			for r := 0; r < q; r++ {
				sum -= d.l[p*n+r] * d.l[q*n+r]
			}
			if q < p {
				if lqq := d.l[q*n+q]; lqq > 0 {
					d.l[p*n+q] = sum / lqq
				}
				continue
			}
			if sum > 1e-12*a.c[tri(j, j)]*inv2 {
				d.l[p*n+p] = math.Sqrt(sum)
			}
		}
	}
	trials := t.trials
	for j := 0; j < trials; j++ {
		for p := range d.z {
			d.z[p] = normalAt(key + uint64(j*n+p))
		}
		for s, st := range streams {
			p := d.rep[s]
			v := d.mu[p]
			for q := 0; q <= p; q++ {
				v += d.l[p*n+q] * d.z[q]
			}
			if st.v {
				e.bankV[st.agg*trials+j] += v
			} else {
				e.bankW[st.agg*trials+j] += v
			}
		}
	}
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// normalAt is a standard normal variate that is a pure function of key
// (Box–Muller over two hashed uniforms).
func normalAt(key uint64) float64 {
	u1 := (float64(bootstrap.Mix64(2*key)>>11) + 0.5) / (1 << 53)
	u2 := float64(bootstrap.Mix64(2*key+1)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

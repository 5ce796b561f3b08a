package resource

import "runtime/metrics"

// GCStats is one reading of the process-level memory telemetry the
// sampler tracks: absolute gauges (heap live, GC goal) and cumulative
// counters (pause time, GC CPU time, cycles, allocated bytes).
// Subtracting two
// readings' cumulative fields attributes GC work to the interval
// between them — the engine does this per mini-batch.
type GCStats struct {
	// HeapLiveBytes is the memory occupied by live heap objects (plus
	// not-yet-swept dead ones), /memory/classes/heap/objects:bytes.
	HeapLiveBytes int64
	// HeapGoalBytes is the heap size the GC is currently pacing toward,
	// /gc/heap/goal:bytes.
	HeapGoalBytes int64
	// PauseTotalNS approximates cumulative stop-the-world pause time,
	// integrated from the /sched/pauses/total/gc:seconds (or legacy
	// /gc/pauses:seconds) histogram by bucket midpoints.
	PauseTotalNS int64
	// GCCPUNS is the cumulative CPU time the runtime estimates it spent
	// on GC work (mark assists, background and idle marking, pauses),
	// /cpu/classes/gc/total:cpu-seconds, in nanoseconds. The runtime
	// updates it as GC cycles finish.
	GCCPUNS int64
	// Cycles is the cumulative completed GC cycle count,
	// /gc/cycles/total:gc-cycles.
	Cycles int64
	// AllocBytes is the cumulative bytes allocated on the heap,
	// /gc/heap/allocs:bytes.
	AllocBytes int64
}

// Sub returns g - prev on the cumulative fields, keeping g's gauges —
// the per-interval attribution of two successive readings.
func (g GCStats) Sub(prev GCStats) GCStats {
	d := GCStats{
		HeapLiveBytes: g.HeapLiveBytes,
		HeapGoalBytes: g.HeapGoalBytes,
		PauseTotalNS:  g.PauseTotalNS - prev.PauseTotalNS,
		GCCPUNS:       g.GCCPUNS - prev.GCCPUNS,
		Cycles:        g.Cycles - prev.Cycles,
		AllocBytes:    g.AllocBytes - prev.AllocBytes,
	}
	if d.PauseTotalNS < 0 {
		d.PauseTotalNS = 0
	}
	if d.GCCPUNS < 0 {
		d.GCCPUNS = 0
	}
	if d.Cycles < 0 {
		d.Cycles = 0
	}
	if d.AllocBytes < 0 {
		d.AllocBytes = 0
	}
	return d
}

// Sampler reads GCStats from runtime/metrics. It owns a preallocated
// sample slice so steady-state reads do not allocate (runtime/metrics
// reuses histogram buffers held in the samples), and it runs no
// goroutine — the engine reads it synchronously at mini-batch
// boundaries, so there is nothing to stop or leak on Close. A nil
// *Sampler reads zeros.
type Sampler struct {
	samples []metrics.Sample
	// pauseIdx is the index of the pause histogram sample, -1 if the
	// runtime exposes none of the known pause metrics.
	pauseIdx int
}

// Metric names the sampler reads, in sample order.
const (
	idxHeapLive = iota
	idxHeapGoal
	idxCycles
	idxAllocs
	idxGCCPU
	idxPause // must stay last: the pause metric name is probed
)

// NewSampler builds a sampler, probing which pause-histogram metric the
// running runtime exposes.
func NewSampler() *Sampler {
	s := &Sampler{
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/gc/heap/goal:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
		pauseIdx: -1,
	}
	// Newer runtimes renamed the GC pause histogram; probe both and
	// keep whichever exists so the sampler degrades to pause=0 rather
	// than failing on runtime-version skew.
	for _, name := range []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"} {
		probe := []metrics.Sample{{Name: name}}
		metrics.Read(probe)
		if probe[0].Value.Kind() == metrics.KindFloat64Histogram {
			s.pauseIdx = len(s.samples)
			s.samples = append(s.samples, probe[0])
			break
		}
	}
	return s
}

// Read takes one reading. It is cheap (one metrics.Read over a handful
// of samples) and allocation-free after the first call.
func (s *Sampler) Read() GCStats {
	if s == nil {
		return GCStats{}
	}
	metrics.Read(s.samples)
	var g GCStats
	g.HeapLiveBytes = uintSample(s.samples[idxHeapLive])
	g.HeapGoalBytes = uintSample(s.samples[idxHeapGoal])
	g.Cycles = uintSample(s.samples[idxCycles])
	g.AllocBytes = uintSample(s.samples[idxAllocs])
	if v := s.samples[idxGCCPU].Value; v.Kind() == metrics.KindFloat64 {
		g.GCCPUNS = int64(v.Float64() * 1e9)
	}
	if s.pauseIdx >= 0 {
		if h := s.samples[s.pauseIdx].Value; h.Kind() == metrics.KindFloat64Histogram {
			g.PauseTotalNS = int64(histTotal(h.Float64Histogram()) * 1e9)
		}
	}
	return g
}

func uintSample(s metrics.Sample) int64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s.Value.Uint64())
}

// histTotal integrates a runtime/metrics duration histogram by bucket
// midpoints: Σ count·mid(bucket). Unbounded edge buckets fall back to
// their finite edge, so the result is a stable approximation of total
// seconds spent.
func histTotal(h *metrics.Float64Histogram) float64 {
	if h == nil || len(h.Buckets) < 2 {
		return 0
	}
	var total float64
	for i, n := range h.Counts {
		if n == 0 || i+1 >= len(h.Buckets) {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case isInf(lo) && isInf(hi):
			continue
		case isInf(lo):
			mid = hi
		case isInf(hi):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		total += float64(n) * mid
	}
	return total
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 }

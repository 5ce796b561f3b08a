package chaos

import "testing"

// TestDeterministic pins the core property: decisions are a pure
// function of (seed, site), so two injectors with the same config agree
// everywhere and replay re-encounters the same schedule.
func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, PanicProb: 0.1, StragglerProb: 0.1, CorruptProb: 0.1, SegSealDropProb: 0.1}
	a, b := New(cfg), New(cfg)
	for batch := 0; batch < 64; batch++ {
		for w := 0; w < 8; w++ {
			if got, want := a.WorkerFault("facts", batch*512, w), b.WorkerFault("facts", batch*512, w); got != want {
				t.Fatalf("worker site (%d,%d): %v vs %v", batch, w, got, want)
			}
		}
		if got, want := a.SegSealDrop("facts", batch), b.SegSealDrop("facts", batch); got != want {
			t.Fatalf("segseal site %d: %v vs %v", batch, got, want)
		}
	}
}

// TestSeedsDiffer checks different seeds produce different schedules.
func TestSeedsDiffer(t *testing.T) {
	cfg := Config{PanicProb: 0.25, StragglerProb: 0.25, CorruptProb: 0.25}
	a := New(Config{Seed: 1, PanicProb: cfg.PanicProb, StragglerProb: cfg.StragglerProb, CorruptProb: cfg.CorruptProb})
	b := New(Config{Seed: 2, PanicProb: cfg.PanicProb, StragglerProb: cfg.StragglerProb, CorruptProb: cfg.CorruptProb})
	diff := 0
	for batch := 0; batch < 256; batch++ {
		for w := 0; w < 4; w++ {
			if a.WorkerFault("facts", batch*512, w) != b.WorkerFault("facts", batch*512, w) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

// TestZeroAndNil checks that zero probabilities and nil injectors never
// fire — the production default must be fault-free.
func TestZeroAndNil(t *testing.T) {
	var nilInj *Injector
	zero := New(Config{Seed: 7})
	for batch := 0; batch < 128; batch++ {
		for w := 0; w < 4; w++ {
			if k := zero.WorkerFault("facts", batch, w); k != KindNone {
				t.Fatalf("zero-prob injector fired %v", k)
			}
			if k := nilInj.WorkerFault("facts", batch, w); k != KindNone {
				t.Fatalf("nil injector fired %v", k)
			}
		}
		if zero.SegSealDrop("facts", batch) || nilInj.SegSealDrop("facts", batch) {
			t.Fatal("segseal drop fired with zero probability")
		}
	}
	if nilInj.Fired() != 0 || zero.Fired() != 0 {
		t.Fatal("fault counters nonzero without faults")
	}
	nilInj.Sleep() // must not crash
	if nilInj.Seed() != 0 {
		t.Fatal("nil injector seed")
	}
}

// TestRates sanity-checks that firing frequency tracks the configured
// probability (coarsely — this is a hash, not an RNG audit).
func TestRates(t *testing.T) {
	in := New(Config{Seed: 99, PanicProb: 0.2})
	fired := 0
	const sites = 4000
	for i := 0; i < sites; i++ {
		if in.WorkerFault("facts", i*512, i%8) == KindPanic {
			fired++
		}
	}
	rate := float64(fired) / sites
	if rate < 0.12 || rate > 0.3 {
		t.Fatalf("panic rate %.3f far from configured 0.2", rate)
	}
	if in.Counts()[KindPanic] != int64(fired) {
		t.Fatalf("counter %d != observed %d", in.Counts()[KindPanic], fired)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNone: "none", KindPanic: "panic", KindStraggler: "straggler",
		KindCorrupt: "corrupt", KindSegSeal: "segseal",
	}
	if len(Kinds()) != len(want)-1 {
		t.Fatalf("Kinds() has %d kinds, test names %d", len(Kinds()), len(want)-1)
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

package pcore

import (
	"testing"

	"repro/internal/stats"
)

// stepKernel boots a kernel with 4 equal-priority tasks cycling through
// Yield, Compute, Progress and an uncontended Lock–Unlock — the kernel
// calls on a stress trial's hot path — and steps it past warm-up.
func stepKernel(tb testing.TB) *Kernel {
	tb.Helper()
	k := New(Config{})
	tb.Cleanup(k.Shutdown)
	m := NewMutex("m")
	for i := 0; i < 4; i++ {
		if _, err := k.CreateTask("cycler", 5, func(c *Ctx) {
			for {
				c.Yield()
				c.Compute(100)
				c.Progress()
				c.Lock(m)
				c.Unlock(m)
			}
		}); err != nil {
			tb.Fatal(err)
		}
	}
	k.RunUntilIdle(100)
	return k
}

// A steady-state kernel step — one coroutine switch each way plus the
// request's handling and ready-queue update — allocates nothing.
func TestKernelStepDoesNotAllocate(t *testing.T) {
	k := stepKernel(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ran := k.Step(); !ran {
			t.Fatal("kernel went idle")
		}
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocations per Step, want 0", allocs)
	}
}

// A steady-state Run — tasks taking events on their own coroutines, and
// noise forcing yields inside the critical section so that tasks also
// block on the mutex and wake — allocates nothing. The count covers the
// whole run: a per-call average from AllocsPerRun would round a few
// allocations down to zero.
func TestKernelRunDoesNotAllocate(t *testing.T) {
	rng := stats.New(1)
	k := New(Config{Noise: func() bool { return rng.Intn(4) == 0 }})
	t.Cleanup(k.Shutdown)
	m := NewMutex("m")
	for i := 0; i < 4; i++ {
		if _, err := k.CreateTask("locker", 5, func(c *Ctx) {
			for {
				c.Lock(m)
				c.Compute(10)
				c.Progress()
				c.Unlock(m)
				c.Yield()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(1000, nil)
	before, _ := k.RunStats()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200; i++ {
			if _, steps := k.Run(64, nil); steps != 64 {
				t.Fatalf("run took %d of 64 events", steps)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over 200 runs of 64 events, want 0", allocs)
	}
	if events, inline := k.RunStats(); inline == 0 || events == before {
		t.Fatalf("events %d, inline %d: the runs did not run ahead", events, inline)
	}
}

func BenchmarkKernelStep(b *testing.B) {
	k := stepKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

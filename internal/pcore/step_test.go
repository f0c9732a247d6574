package pcore

import "testing"

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

func BenchmarkKernelStep(b *testing.B) {
	k := stepKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

package master

import (
	"runtime"
	"testing"
	"time"
)

// Each thread runs on an iter.Pull coroutine, which holds a goroutine
// until its body finishes. After every lifecycle path the goroutine
// count must return to where it started; a thread left suspended fails.

// baseline returns the goroutine count once goroutines left over from
// earlier tests, such as a finished subtest's, have exited.
func baseline() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// settled waits for the goroutine count to come back to base. A
// finished coroutine's goroutine exits at once; the short poll only
// absorbs unrelated runtime goroutines.
func settled(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d (a thread coroutine was left suspended)", what, n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestThreadLifecycleLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, o *OS)
	}{
		{"returns", func(t *testing.T, o *OS) {
			o.Spawn("ret", func(c *Ctx) { c.Compute(10) })
			o.RunUntilIdle(10)
		}},
		{"panics", func(t *testing.T, o *OS) {
			o.Spawn("boom", func(c *Ctx) {
				c.Yield()
				panic("boom")
			})
			o.RunUntilIdle(10)
			if o.LastPanic() == nil {
				t.Fatal("panic not contained")
			}
		}},
		{"parked-then-shutdown", func(t *testing.T, o *OS) {
			o.Spawn("parked", func(c *Ctx) { c.Park("rpc") })
			o.RunUntilIdle(10)
			o.Shutdown()
		}},
		{"unparked-then-returns", func(t *testing.T, o *OS) {
			id := o.Spawn("parked", func(c *Ctx) { c.Park("rpc") })
			o.RunUntilIdle(10)
			o.Unpark(id)
			o.RunUntilIdle(10)
		}},
		{"never-stepped-then-shutdown", func(t *testing.T, o *OS) {
			o.Spawn("fresh", func(c *Ctx) { c.Yield() })
			o.Shutdown()
		}},
		{"shutdown-twice", func(t *testing.T, o *OS) {
			o.Spawn("spinner", func(c *Ctx) {
				for {
					c.Yield()
				}
			})
			o.RunUntilIdle(5)
			o.Shutdown()
			o.Shutdown()
			if o.Ready() {
				t.Fatal("runnable after shutdown")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := baseline()
			o := New()
			tc.run(t, o)
			settled(t, base, tc.name)
			for _, th := range o.Threads() {
				if th.State() != TDone {
					t.Fatalf("thread %s is %s", th.Name(), th.State())
				}
			}
		})
	}
}

// The leak check has teeth: a parked thread holds exactly one goroutine
// until Shutdown.
func TestParkedThreadHoldsOneGoroutine(t *testing.T) {
	base := baseline()
	o := New()
	o.Spawn("parked", func(c *Ctx) { c.Park("rpc") })
	o.RunUntilIdle(5)
	if n := runtime.NumGoroutine(); n != base+1 {
		t.Fatalf("%d goroutines with one parked thread, want %d", n, base+1)
	}
	o.Shutdown()
	settled(t, base, "shutdown")
}

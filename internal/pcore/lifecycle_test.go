package pcore

import (
	"runtime"
	"testing"
	"time"
)

// Every task runs on an iter.Pull coroutine, which holds a goroutine
// until its body finishes. These tests drive each way a task can end and
// check that the goroutine count returns to where it started, so a
// coroutine left suspended — a leaked task — fails them.

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
			t.Fatalf("%s: %d goroutines, want %d (a task coroutine was left suspended)", what, n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTaskLifecycleLeavesNoGoroutines(t *testing.T) {
	parked := func(c *Ctx) {
		for {
			c.Yield()
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, k *Kernel)
	}{
		{"returns", func(t *testing.T, k *Kernel) {
			_, _ = k.CreateTask("ret", 5, func(c *Ctx) { c.Compute(10) })
			k.RunUntilIdle(10)
		}},
		{"ctx-exit", func(t *testing.T, k *Kernel) {
			_, _ = k.CreateTask("exit", 5, func(c *Ctx) {
				c.Yield()
				c.Exit()
			})
			k.RunUntilIdle(10)
		}},
		{"task-panic", func(t *testing.T, k *Kernel) {
			_, _ = k.CreateTask("boom", 5, func(c *Ctx) {
				c.Compute(10)
				panic("boom")
			})
			k.RunUntilIdle(10)
			if !k.Crashed() {
				t.Fatal("task panic did not crash the kernel")
			}
		}},
		{"deleted-while-parked", func(t *testing.T, k *Kernel) {
			sem := NewSem("never", 0)
			blocked, _ := k.CreateTask("blocked", 5, func(c *Ctx) { c.SemWait(sem) })
			ready, _ := k.CreateTask("ready", 6, parked)
			k.RunUntilIdle(5)
			if err := k.DeleteTask(blocked); err != nil {
				t.Fatal(err)
			}
			if err := k.TerminateTask(ready); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted-before-dispatch", func(t *testing.T, k *Kernel) {
			id, _ := k.CreateTask("fresh", 5, parked)
			if err := k.DeleteTask(id); err != nil {
				t.Fatal(err)
			}
		}},
		{"suspended-then-deleted", func(t *testing.T, k *Kernel) {
			id, _ := k.CreateTask("susp", 5, parked)
			k.RunUntilIdle(3)
			if err := k.SuspendTask(id); err != nil {
				t.Fatal(err)
			}
			if err := k.DeleteTask(id); err != nil {
				t.Fatal(err)
			}
		}},
		{"killed-by-stack-overflow", func(t *testing.T, k *Kernel) {
			_, _ = k.CreateTask("deep", 5, func(c *Ctx) {
				for {
					c.StackPush(100)
				}
			})
			k.RunUntilIdle(100)
			if !k.Crashed() {
				t.Fatal("no stack-overflow crash")
			}
		}},
		{"killed-by-recursive-lock", func(t *testing.T, k *Kernel) {
			m := NewMutex("m")
			_, _ = k.CreateTask("relock", 5, func(c *Ctx) {
				c.Lock(m)
				c.Lock(m)
			})
			k.RunUntilIdle(10)
			if !k.Crashed() {
				t.Fatal("no recursive-lock crash")
			}
		}},
		{"shutdown", func(t *testing.T, k *Kernel) {
			sem := NewSem("never", 0)
			_, _ = k.CreateTask("blocked", 4, func(c *Ctx) { c.SemWait(sem) })
			_, _ = k.CreateTask("ready", 5, parked)
			k.RunUntilIdle(5)
			_, _ = k.CreateTask("fresh", 6, parked)
			k.Shutdown()
		}},
		{"shutdown-twice", func(t *testing.T, k *Kernel) {
			_, _ = k.CreateTask("ready", 5, parked)
			k.RunUntilIdle(3)
			k.Shutdown()
			k.Shutdown()
			if _, ran := k.Step(); ran {
				t.Fatal("kernel ran after shutdown")
			}
		}},
		{"shutdown-after-crash", func(t *testing.T, k *Kernel) {
			m := NewMutex("m")
			_, _ = k.CreateTask("bystander", 6, parked)
			_, _ = k.CreateTask("unlocker", 5, func(c *Ctx) { c.Unlock(m) })
			k.RunUntilIdle(10)
			if !k.Crashed() {
				t.Fatal("no bad-unlock crash")
			}
			k.Shutdown()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := baseline()
			k := New(Config{})
			tc.run(t, k)
			settled(t, base, tc.name)
			if live := k.LiveTasks(); len(live) != 0 {
				t.Fatalf("live tasks %v", live)
			}
		})
	}
}

// The leak check has teeth: a parked task holds exactly one goroutine
// until it is killed.
func TestParkedTaskHoldsOneGoroutine(t *testing.T) {
	base := baseline()
	k := New(Config{})
	_, _ = k.CreateTask("parked", 5, func(c *Ctx) {
		for {
			c.Yield()
		}
	})
	k.RunUntilIdle(3)
	if n := runtime.NumGoroutine(); n != base+1 {
		t.Fatalf("%d goroutines with one parked task, want %d", n, base+1)
	}
	k.Shutdown()
	settled(t, base, "shutdown")
}

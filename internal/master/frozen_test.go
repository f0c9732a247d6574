package master_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/master"
	"repro/internal/stats"
)

// The frozen thread streams pin the master OS's observable behaviour —
// every ThreadEvent, every step's cost, cycles, switches, contained
// panics and final thread states — for spawn, park/unpark, panic and
// shutdown scenarios. testdata/frozen-threads.json was captured from the
// goroutine-handoff scheduler before threads became coroutines.
//
// After an intended behaviour change, `go test -run TestFrozenThreadStreams
// -v ./internal/master` prints the new table for review.

const frozenFile = "testdata/frozen-threads.json"

type recorder struct{ h hash.Hash }

func (r *recorder) printf(format string, args ...any) { fmt.Fprintf(r.h, format, args...) }

func (r *recorder) steps(o *master.OS, n int) {
	for i := 0; i < n; i++ {
		cost, ran := o.Step()
		r.printf("step %d %v\n", cost, ran)
	}
}

func (r *recorder) states(o *master.OS, when string) {
	r.printf("%s cycles=%d switches=%d ready=%v\n", when, o.Cycles(), o.Switches(), o.Ready())
	if p := o.LastPanic(); p != nil {
		r.printf("panic %+v\n", *p)
	}
	for _, t := range o.Threads() {
		r.printf("thread %d %s %s %q\n", t.ID(), t.Name(), t.State(), t.ParkedOn())
	}
}

// worker yields, computes and parks in a seeded mix.
func worker(seed uint64, rounds int) func(*master.Ctx) {
	return func(c *master.Ctx) {
		rng := stats.New(seed)
		for i := 0; i < rounds; i++ {
			switch rng.Intn(4) {
			case 0:
				c.Yield()
			case 1:
				c.Compute(10 + rng.Intn(90))
			case 2:
				c.Compute(0)
				c.Park(fmt.Sprintf("rpc-%d", i))
			case 3:
				c.Park("io")
			}
		}
	}
}

func frozenThreadScenarios() map[string]func() string {
	run := func(drive func(*master.OS, *recorder)) string {
		r := &recorder{h: sha256.New()}
		o := master.New()
		o.OnEvent(func(e master.ThreadEvent) { r.printf("ev %+v\n", e) })
		drive(o, r)
		r.states(o, "final")
		o.Shutdown()
		r.states(o, "shutdown")
		o.Shutdown()
		r.states(o, "shutdown-again")
		return hex.EncodeToString(r.h.Sum(nil))
	}
	// unparkSome wakes a random parked thread every few steps.
	unparkSome := func(o *master.OS, r *recorder, rng *stats.RNG, steps int) {
		for i := 0; i < steps; i++ {
			if i%3 == 0 {
				ts := o.Threads()
				t := ts[rng.Intn(len(ts))]
				r.printf("unpark %d %s\n", t.ID(), t.State())
				o.Unpark(t.ID())
			}
			r.steps(o, 1)
		}
	}
	return map[string]func() string{
		"spawn-run": func() string {
			return run(func(o *master.OS, r *recorder) {
				o.Spawn("a", func(c *master.Ctx) {
					for i := 0; i < 5; i++ {
						c.Compute(40)
					}
				})
				o.Spawn("b", func(c *master.Ctx) {
					for i := 0; i < 7; i++ {
						c.Yield()
					}
				})
				o.Spawn("empty", func(*master.Ctx) {})
				r.printf("ran %d\n", o.RunUntilIdle(1000))
			})
		},
		"park-unpark": func() string {
			return run(func(o *master.OS, r *recorder) {
				for i := 0; i < 4; i++ {
					o.Spawn(fmt.Sprintf("w%d", i), worker(uint64(i), 30))
				}
				unparkSome(o, r, stats.New(9), 400)
			})
		},
		"spawn-while-running": func() string {
			return run(func(o *master.OS, r *recorder) {
				rng := stats.New(4)
				for i := 0; i < 8; i++ {
					o.Spawn(fmt.Sprintf("late%d", i), worker(uint64(10+i), 12))
					unparkSome(o, r, rng, 15)
				}
			})
		},
		"panic": func() string {
			return run(func(o *master.OS, r *recorder) {
				o.Spawn("ok", worker(1, 10))
				o.Spawn("bad", func(c *master.Ctx) {
					c.Compute(50)
					c.Yield()
					panic("remote thread fault")
				})
				o.Spawn("bad2", func(c *master.Ctx) {
					c.Park("never")
				})
				unparkSome(o, r, stats.New(2), 60)
			})
		},
		"shutdown": func() string {
			return run(func(o *master.OS, r *recorder) {
				o.Spawn("parked", func(c *master.Ctx) {
					c.Park("forever")
				})
				o.Spawn("spinner", func(c *master.Ctx) {
					for {
						c.Yield()
					}
				})
				o.Spawn("done", func(*master.Ctx) {})
				r.steps(o, 10)
				o.Spawn("never-stepped", func(c *master.Ctx) { c.Yield() })
			})
		},
	}
}

func TestFrozenThreadStreams(t *testing.T) {
	scenarios := frozenThreadScenarios()
	got := make(map[string]string, len(scenarios))
	for name, fn := range scenarios {
		got[name] = fn()
	}
	data, err := os.ReadFile(filepath.FromSlash(frozenFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, frozen %s", name, d, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: frozen scenario no longer run", name)
		}
	}
	if t.Failed() || testing.Verbose() {
		table, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests:\n%s", table)
	}
}

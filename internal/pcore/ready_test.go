package pcore

import (
	"math/rand"
	"slices"
	"testing"
)

// ringContents lists a ready ring front to back.
func ringContents(r *readyRing) []TaskID {
	out := make([]TaskID, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ids[r.slot(i)])
	}
	return out
}

// The ring deque against a plain-slice model: random pushBack,
// pushFront, popFront and remove-from-middle at capacity MaxTasks, run
// long enough for the head to wrap around the ring many times.
func TestReadyRingMatchesSliceModel(t *testing.T) {
	const capacity = 16 // Config.MaxTasks default
	rng := rand.New(rand.NewSource(1))
	r := readyRing{ids: make([]TaskID, capacity)}
	var model []TaskID
	queued := make(map[TaskID]bool)
	wraps, fulls := 0, 0
	for op := 0; op < 20000; op++ {
		// Ids are unique in the ring, as a task sits in at most one queue.
		var free []TaskID
		for id := TaskID(1); id <= capacity; id++ {
			if !queued[id] {
				free = append(free, id)
			}
		}
		switch choice := rng.Intn(4); {
		case choice == 0 && len(free) > 0:
			id := free[rng.Intn(len(free))]
			r.pushBack(id)
			model = append(model, id)
			queued[id] = true
		case choice == 1 && len(free) > 0:
			id := free[rng.Intn(len(free))]
			before := r.head
			r.pushFront(id)
			if r.head > before {
				wraps++
			}
			model = append([]TaskID{id}, model...)
			queued[id] = true
		case choice == 2 && len(model) > 0:
			if got := r.popFront(); got != model[0] {
				t.Fatalf("op %d: popFront %d, model %d", op, got, model[0])
			}
			delete(queued, model[0])
			model = model[1:]
		case choice == 3 && len(model) > 0:
			i := rng.Intn(len(model))
			r.remove(model[i])
			delete(queued, model[i])
			model = slices.Delete(model, i, i+1)
		}
		if r.n == capacity {
			fulls++
		}
		if got := ringContents(&r); !slices.Equal(got, model) {
			t.Fatalf("op %d: ring %v, model %v", op, got, model)
		}
	}
	if wraps == 0 || fulls == 0 {
		t.Fatalf("model run never wrapped (%d) or filled (%d) the ring", wraps, fulls)
	}
}

func TestReadyRingRemoveAbsentIsNoop(t *testing.T) {
	r := readyRing{ids: make([]TaskID, 4)}
	r.pushBack(1)
	r.pushBack(2)
	r.remove(3)
	if got := ringContents(&r); !slices.Equal(got, []TaskID{1, 2}) {
		t.Fatalf("ring %v", got)
	}
}

func TestReadyRingOverflowPanics(t *testing.T) {
	r := readyRing{ids: make([]TaskID, 2)}
	r.pushBack(1)
	r.pushFront(2)
	defer func() {
		if recover() == nil {
			t.Fatal("push past capacity did not panic")
		}
	}()
	r.pushBack(3)
}

// The kernel's ready queues against a per-priority slice model, with
// Noise deciding at every enqueueFront whether the continuation is forced
// to the back of its level. Sixteen tasks over three priority levels
// keep the rings crowded and wrapping.
func TestKernelReadyQueuesMatchModelUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	forced := false
	k := New(Config{Noise: func() bool {
		forced = rng.Intn(2) == 0
		return forced
	}})
	var tasks []*Task
	for id := TaskID(1); int(id) <= k.cfg.MaxTasks; id++ {
		t := &Task{id: id, state: StateSuspended}
		k.tasks[id] = t
		tasks = append(tasks, t)
	}
	model := make(map[Priority][]TaskID)
	noisy := 0
	for op := 0; op < 20000; op++ {
		t0 := tasks[rng.Intn(len(tasks))]
		switch {
		case t0.state != StateReady && rng.Intn(2) == 0:
			t0.prio = Priority(rng.Intn(3))
			k.enqueueBack(t0)
			model[t0.prio] = append(model[t0.prio], t0.id)
		case t0.state != StateReady:
			t0.prio = Priority(rng.Intn(3))
			k.enqueueFront(t0)
			if forced {
				noisy++
				model[t0.prio] = append(model[t0.prio], t0.id)
			} else {
				model[t0.prio] = append([]TaskID{t0.id}, model[t0.prio]...)
			}
		case rng.Intn(2) == 0:
			k.dequeue(t0)
			t0.state = StateSuspended
			q := model[t0.prio]
			model[t0.prio] = slices.Delete(q, slices.Index(q, t0.id), slices.Index(q, t0.id)+1)
		default:
			got := k.pickNext()
			var want TaskID
			for p := Priority(0); p < 3; p++ {
				if len(model[p]) > 0 {
					want = model[p][0]
					model[p] = model[p][1:]
					break
				}
			}
			if got == nil || got.id != want {
				t.Fatalf("op %d: pickNext %v, model %d", op, got, want)
			}
			got.state = StateRunning
		}
		total := 0
		for p := Priority(0); p < NumPriorities; p++ {
			if got := ringContents(&k.ready[p]); !slices.Equal(got, model[p]) {
				t.Fatalf("op %d prio %d: ring %v, model %v", op, p, got, model[p])
			}
			if (k.readyMask&(1<<uint(p)) != 0) != (len(model[p]) > 0) {
				t.Fatalf("op %d prio %d: readyMask %b disagrees with model", op, p, k.readyMask)
			}
			total += len(model[p])
		}
		if k.ReadyCount() != total {
			t.Fatalf("op %d: ReadyCount %d, model %d", op, k.ReadyCount(), total)
		}
	}
	if noisy == 0 {
		t.Fatal("noise never forced a continuation to the back")
	}
}

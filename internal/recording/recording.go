// Package recording implements the paper's Definition 2 — the state
// recording of concurrent processes in a master-slave system, the
// five-tuple (qm, qs, TP, SN, δS) — and the journal the bug detector
// consults. Figure 4's sample records CP1 = (m2, s1, p1->p2->p3, 2, p3)
// render exactly through Record.String.
package recording

import (
	"encoding/json"
	"fmt"
	"iter"
	"strings"
)

// Record is the Definition 2 five-tuple for one observed command.
type Record struct {
	// QM is the last state of the master process before it issued the
	// remote command.
	QM string `json:"qm"`
	// QS is the current state of the slave process.
	QS string `json:"qs"`
	// TP is the test pattern assigned to the slave process.
	TP []string `json:"tp"`
	// SN is the 1-based sequence number of the current state of the test
	// pattern.
	SN int `json:"sn"`
	// Sub is δS, the subsequence of the test pattern to be executed next.
	Sub []string `json:"sub"`
}

// String renders the record in the paper's notation, e.g.
// "(m2, s1, p1->p2->p3, 2, p3)".
func (r Record) String() string {
	return fmt.Sprintf("(%s, %s, %s, %d, %s)",
		r.QM, r.QS, strings.Join(r.TP, "->"), r.SN, strings.Join(r.Sub, "->"))
}

// Remaining returns δS computed from TP and SN: the suffix after the
// current position, or nil when none is left. It is the canonical value
// for Sub. The suffix shares tp's storage, so records of one immutable
// per-task pattern cost no copy.
func Remaining(tp []string, sn int) []string {
	sn = max(sn, 0)
	if sn >= len(tp) {
		return nil
	}
	return tp[sn:]
}

// Entry is a journaled record with its provenance.
type Entry struct {
	Seq    uint64 `json:"seq"`  // global journal order
	At     uint64 `json:"at"`   // platform virtual time (cycles)
	Task   int    `json:"task"` // logical task index
	Record Record `json:"record"`
}

// Journal is a bounded in-order log of state records. The zero value is
// unbounded; use NewJournal for a bound that keeps the newest entries.
type Journal struct {
	// entries is the retained window, oldest first. Appends only ever
	// write past its end, and a full window slides forward or moves to
	// a fresh array, so no slot a View has seen is written again.
	entries []Entry
	limit   int
	seq     uint64
	dropped uint64
}

// NewJournal returns a journal keeping at most limit entries (0 or
// negative keeps everything).
func NewJournal(limit int) *Journal {
	return &Journal{limit: limit}
}

// Append adds a record for the logical task at the given virtual time.
// It is amortized O(1) for bounded journals too: a full window slides
// forward in its array, and only when the array runs out does it move
// to a fresh one with room for another limit entries.
func (j *Journal) Append(at uint64, task int, r Record) {
	j.seq++
	if j.limit > 0 && len(j.entries) == j.limit {
		j.entries = j.entries[1:]
		j.dropped++
		if len(j.entries) == cap(j.entries) {
			fresh := make([]Entry, len(j.entries), 2*j.limit)
			copy(fresh, j.entries)
			j.entries = fresh
		}
	}
	j.entries = append(j.entries, Entry{Seq: j.seq, At: at, Task: task, Record: r})
}

// Len returns the number of retained entries.
func (j *Journal) Len() int { return len(j.entries) }

// Dropped returns the number of entries evicted by the bound.
func (j *Journal) Dropped() uint64 { return j.dropped }

// Entries returns a copy of the retained entries in order.
func (j *Journal) Entries() []Entry {
	return append([]Entry{}, j.entries...)
}

// after returns the index of the first retained entry with Seq > seq.
func (j *Journal) after(seq uint64) int {
	// Entries are in ascending Seq order; binary search the boundary.
	lo, hi := 0, len(j.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if j.entries[mid].Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Since returns a copy of the retained entries with Seq > seq, in order.
func (j *Journal) Since(seq uint64) []Entry {
	return append([]Entry{}, j.entries[j.after(seq):]...)
}

// After yields the retained entries with Seq > seq, in order, without
// copying them — the incremental scan the bug detector's
// record-consistency check runs on every check. The journal must not be
// appended to during the iteration.
func (j *Journal) After(seq uint64) iter.Seq[Entry] {
	return func(yield func(Entry) bool) {
		for _, e := range j.entries[j.after(seq):] {
			if !yield(e) {
				return
			}
		}
	}
}

// Last returns the most recent entry, ok=false when empty.
func (j *Journal) Last() (Entry, bool) {
	if len(j.entries) == 0 {
		return Entry{}, false
	}
	return j.entries[len(j.entries)-1], true
}

// LastForTask returns the most recent entry for the logical task.
func (j *Journal) LastForTask(task int) (Entry, bool) {
	for i := len(j.entries) - 1; i >= 0; i-- {
		if j.entries[i].Task == task {
			return j.entries[i], true
		}
	}
	return Entry{}, false
}

// PerTask splits the retained entries by logical task.
func (j *Journal) PerTask() map[int][]Entry {
	out := map[int][]Entry{}
	for _, e := range j.entries {
		out[e.Task] = append(out[e.Task], e)
	}
	return out
}

// MarshalJSON encodes the journal as its entry list, for bug dumps.
func (j *Journal) MarshalJSON() ([]byte, error) {
	return json.Marshal(j.entries)
}

// View returns a frozen view of the retained entries in O(1), without
// copying or rendering them. Later appends never change what it shows.
func (j *Journal) View() View {
	return View{entries: j.entries[:len(j.entries):len(j.entries)]}
}

// Dump renders the journal in the paper's record notation; see
// View.String.
func (j *Journal) Dump() string { return j.View().String() }

// View is a frozen view of a journal's entries, taken by Journal.View.
// The zero value shows an empty journal.
type View struct {
	entries []Entry
}

// String renders the entries in the paper's record notation, one per
// line, most recent last. It is the "related information to help users
// reproduce the bugs" the detector attaches to reports, rendered only
// when someone reads it.
func (v View) String() string {
	var sb strings.Builder
	for _, e := range v.entries {
		fmt.Fprintf(&sb, "#%d t=%d task=%d %s\n", e.Seq, e.At, e.Task, e.Record)
	}
	return sb.String()
}

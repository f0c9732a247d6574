package recording

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFigure4StateRecords(t *testing.T) {
	// The paper's Figure 4: CP1 = (m2, s1, p1->p2->p3, 2, p3) and
	// CP2 = (m3, s2, p2->p1->p3, 1, p1->p3).
	cp1 := Record{
		QM: "m2", QS: "s1",
		TP:  []string{"p1", "p2", "p3"},
		SN:  2,
		Sub: Remaining([]string{"p1", "p2", "p3"}, 2),
	}
	if cp1.String() != "(m2, s1, p1->p2->p3, 2, p3)" {
		t.Fatalf("CP1 renders %q", cp1.String())
	}
	cp2 := Record{
		QM: "m3", QS: "s2",
		TP:  []string{"p2", "p1", "p3"},
		SN:  1,
		Sub: Remaining([]string{"p2", "p1", "p3"}, 1),
	}
	if cp2.String() != "(m3, s2, p2->p1->p3, 1, p1->p3)" {
		t.Fatalf("CP2 renders %q", cp2.String())
	}
}

func TestRemaining(t *testing.T) {
	tp := []string{"a", "b", "c"}
	cases := []struct {
		sn   int
		want string
	}{
		{0, "a b c"},
		{1, "b c"},
		{2, "c"},
		{3, ""},
		{9, ""},
		{-1, "a b c"},
	}
	for _, tc := range cases {
		got := strings.Join(Remaining(tp, tc.sn), " ")
		if got != tc.want {
			t.Errorf("Remaining(%d) = %q, want %q", tc.sn, got, tc.want)
		}
	}
}

func TestRemainingProperty(t *testing.T) {
	// Property: len(Remaining(tp, sn)) == max(0, len(tp)-max(0,sn)) and
	// the result is a suffix of tp.
	err := quick.Check(func(n uint8, sn int8) bool {
		tp := make([]string, n%10)
		for i := range tp {
			tp[i] = string(rune('a' + i))
		}
		rem := Remaining(tp, int(sn))
		start := int(sn)
		if start < 0 {
			start = 0
		}
		wantLen := len(tp) - start
		if wantLen < 0 {
			wantLen = 0
		}
		if len(rem) != wantLen {
			return false
		}
		for i, s := range rem {
			if tp[start+i] != s {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJournalAppendAndQuery(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 5; i++ {
		j.Append(uint64(i*10), i%2, Record{QM: "m", QS: "s", SN: i})
	}
	if j.Len() != 5 {
		t.Fatalf("len %d", j.Len())
	}
	last, ok := j.Last()
	if !ok || last.Record.SN != 4 {
		t.Fatalf("last %+v", last)
	}
	e, ok := j.LastForTask(0)
	if !ok || e.Record.SN != 4 {
		t.Fatalf("lastForTask(0) %+v", e)
	}
	e, ok = j.LastForTask(1)
	if !ok || e.Record.SN != 3 {
		t.Fatalf("lastForTask(1) %+v", e)
	}
	if _, ok := j.LastForTask(7); ok {
		t.Fatal("entry for unknown task")
	}
	per := j.PerTask()
	if len(per[0]) != 3 || len(per[1]) != 2 {
		t.Fatalf("perTask %v", per)
	}
}

func TestJournalBound(t *testing.T) {
	j := NewJournal(3)
	for i := 0; i < 10; i++ {
		j.Append(uint64(i), 0, Record{SN: i})
	}
	if j.Len() != 3 {
		t.Fatalf("len %d", j.Len())
	}
	if j.Dropped() != 7 {
		t.Fatalf("dropped %d", j.Dropped())
	}
	es := j.Entries()
	if es[0].Record.SN != 7 || es[2].Record.SN != 9 {
		t.Fatalf("entries %v", es)
	}
}

func TestJournalEmptyLast(t *testing.T) {
	j := NewJournal(0)
	if _, ok := j.Last(); ok {
		t.Fatal("empty journal has Last")
	}
}

func TestJournalSince(t *testing.T) {
	j := NewJournal(0)
	for i := 1; i <= 10; i++ {
		j.Append(uint64(i), 0, Record{SN: i})
	}
	if got := j.Since(0); len(got) != 10 {
		t.Fatalf("Since(0) = %d entries", len(got))
	}
	got := j.Since(7)
	if len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("Since(7) = %v", got)
	}
	if got := j.Since(10); len(got) != 0 {
		t.Fatalf("Since(10) = %d entries", len(got))
	}
	if got := j.Since(99); len(got) != 0 {
		t.Fatalf("Since(99) = %d entries", len(got))
	}
	// Bounded journal: evicted entries are simply absent.
	b := NewJournal(3)
	for i := 1; i <= 10; i++ {
		b.Append(uint64(i), 0, Record{SN: i})
	}
	if got := b.Since(0); len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("bounded Since(0) = %v", got)
	}
}

func TestJournalJSONAndDump(t *testing.T) {
	j := NewJournal(0)
	j.Append(42, 1, Record{QM: "m1", QS: "ready", TP: []string{"TC", "TD"}, SN: 1, Sub: []string{"TD"}})
	b, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back []Entry
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Record.QM != "m1" {
		t.Fatalf("round trip %v", back)
	}
	dump := j.Dump()
	if !strings.Contains(dump, "(m1, ready, TC->TD, 1, TD)") {
		t.Fatalf("dump %q", dump)
	}
}

// render is the reference rendering of entries in the paper's notation.
func render(entries []Entry) string {
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "#%d t=%d task=%d %s\n", e.Seq, e.At, e.Task, e.Record)
	}
	return sb.String()
}

// TestJournalMatchesSliceModel checks every accessor of a bounded
// journal against a plain slice of everything appended, over three times
// the bound, and checks that views taken along the way still render the
// text they showed when taken.
func TestJournalMatchesSliceModel(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 7, 64} {
		rng := rand.New(rand.NewPCG(uint64(limit), 1))
		j := NewJournal(limit)
		var all []Entry
		type frozen struct {
			v    View
			want string
		}
		var views []frozen
		tp := []string{"TC", "TS", "TR", "TD"}
		n := 3*limit + 5
		for i := 0; i < n; i++ {
			task := rng.IntN(4)
			sn := rng.IntN(len(tp) + 1)
			r := Record{QM: "issue:TS", QS: "ready", TP: tp, SN: sn, Sub: Remaining(tp, sn)}
			j.Append(uint64(10*i), task, r)
			all = append(all, Entry{Seq: uint64(i + 1), At: uint64(10 * i), Task: task, Record: r})
			keep := all
			if limit > 0 && len(keep) > limit {
				keep = keep[len(keep)-limit:]
			}

			if j.Len() != len(keep) || j.Dropped() != uint64(len(all)-len(keep)) {
				t.Fatalf("limit %d append %d: len %d dropped %d, model %d/%d",
					limit, i, j.Len(), j.Dropped(), len(keep), len(all)-len(keep))
			}
			if got := j.Entries(); !reflect.DeepEqual(got, append([]Entry{}, keep...)) {
				t.Fatalf("limit %d append %d: entries %v, model %v", limit, i, got, keep)
			}
			seq := uint64(rng.IntN(len(all) + 2))
			var since []Entry
			for _, e := range keep {
				if e.Seq > seq {
					since = append(since, e)
				}
			}
			if got := j.Since(seq); len(got) != len(since) || (len(got) > 0 && !reflect.DeepEqual(got, since)) {
				t.Fatalf("limit %d append %d: Since(%d) %v, model %v", limit, i, seq, got, since)
			}
			if got := slices.Collect(j.After(seq)); !reflect.DeepEqual(got, since) {
				t.Fatalf("limit %d append %d: After(%d) %v, model %v", limit, i, seq, got, since)
			}
			if last, ok := j.Last(); !ok || !reflect.DeepEqual(last, keep[len(keep)-1]) {
				t.Fatalf("limit %d append %d: Last %v %v", limit, i, last, ok)
			}
			probe := rng.IntN(5)
			want, wantOK := Entry{}, false
			for _, e := range keep {
				if e.Task == probe {
					want, wantOK = e, true
				}
			}
			if got, ok := j.LastForTask(probe); ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("limit %d append %d: LastForTask(%d) %v %v, model %v %v",
					limit, i, probe, got, ok, want, wantOK)
			}
			per := map[int][]Entry{}
			for _, e := range keep {
				per[e.Task] = append(per[e.Task], e)
			}
			if got := j.PerTask(); !reflect.DeepEqual(got, per) {
				t.Fatalf("limit %d append %d: PerTask %v, model %v", limit, i, got, per)
			}
			if j.Dump() != render(keep) {
				t.Fatalf("limit %d append %d: Dump %q, model %q", limit, i, j.Dump(), render(keep))
			}
			if rng.IntN(3) == 0 {
				views = append(views, frozen{j.View(), render(keep)})
			}
			if i%8 != 0 && i != n-1 {
				continue
			}
			for k, f := range views {
				if got := f.v.String(); got != f.want {
					t.Fatalf("limit %d append %d: view %d now renders %q, took %q", limit, i, k, got, f.want)
				}
			}
		}
	}
}

func TestZeroViewIsEmpty(t *testing.T) {
	if s := (View{}).String(); s != "" {
		t.Fatalf("zero view renders %q", s)
	}
	if s := fmt.Sprint(NewJournal(4).View()); s != "" {
		t.Fatalf("empty journal view renders %q", s)
	}
}

// A bounded journal at its limit must append in amortized O(1): no
// allocation per record once the window is full.
func TestBoundedAppendAmortized(t *testing.T) {
	const limit = 256
	j := NewJournal(limit)
	r := Record{QM: "issue:TC", QS: "ready"}
	for i := 0; i < 2*limit; i++ {
		j.Append(uint64(i), 0, r)
	}
	if allocs := testing.AllocsPerRun(4*limit, func() { j.Append(1, 0, r) }); allocs != 0 {
		t.Fatalf("Append allocates %v times per record at the limit", allocs)
	}
	if j.Len() != limit {
		t.Fatalf("len %d", j.Len())
	}
}

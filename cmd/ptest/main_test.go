package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/store"
)

func wantUsageError(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want usage error, got nil")
	}
	if !errors.As(err, &usageError{}) {
		t.Fatalf("want usageError (exit 2), got %T: %v", err, err)
	}
}

func TestRunValidationRoutesThroughUsageError(t *testing.T) {
	// Every bad-input shape lands on the same error path.
	wantUsageError(t, cmdRun(nil))                                           // no -re/-pcore
	wantUsageError(t, cmdRun([]string{"-pcore", "-workload", "nosuch"}))     // unknown workload
	wantUsageError(t, cmdRun([]string{"-pcore", "-op", "bogus"}))            // unknown merge op
	wantUsageError(t, cmdRun([]string{"-pcore", "-pd", "garbage"}))          // bad PD syntax
	wantUsageError(t, cmdRun([]string{"-no-such-flag"}))                     // flag parse error
	wantUsageError(t, cmdSuite(nil))                                         // missing -spec
	wantUsageError(t, cmdSuite([]string{"-spec", "/nonexistent/spec.json"})) // unreadable spec
	wantUsageError(t, cmdCompare([]string{"only-one.json"}))                 // wrong arity
	wantUsageError(t, cmdServe([]string{"-queue", "0"}))                     // unbounded queue
	wantUsageError(t, cmdClient(nil))                                        // missing verb
	wantUsageError(t, cmdClient([]string{"bogus"}))                          // unknown verb
	wantUsageError(t, cmdClient([]string{"submit"}))                         // missing -spec
	wantUsageError(t, cmdClient([]string{"submit", "-spec", "/nonexistent/spec.json"}))
	wantUsageError(t, cmdClient([]string{"watch"}))                                        // missing job id
	wantUsageError(t, cmdClient([]string{"report", "a", "b"}))                             // wrong arity
	wantUsageError(t, cmdClient([]string{"cancel"}))                                       // missing job id
	wantUsageError(t, cmdRun([]string{"-pcore", "-store", "x", "-dump-journal"}))          // store vs journal
	wantUsageError(t, cmdStoreAdmin(nil))                                                  // missing verb
	wantUsageError(t, cmdStoreAdmin([]string{"bogus"}))                                    // unknown verb
	wantUsageError(t, cmdStoreAdmin([]string{"compact"}))                                  // missing -dir
	wantUsageError(t, cmdRun([]string{"-pcore", "-store", "a", "-store-url", "http://b"})) // mutually exclusive
	wantUsageError(t, cmdServe([]string{"-store-autocompact", "1"}))                       // autocompact needs -store
}

func TestHelpRequestIsNotAnError(t *testing.T) {
	err := cmdRun([]string{"-h"})
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("want flag.ErrHelp, got %v", err)
	}
	if errors.As(err, &usageError{}) {
		t.Fatal("help request classified as usage error (would exit 2)")
	}
}

func TestRunCleanWorkloadSucceeds(t *testing.T) {
	if err := cmdRun([]string{"-pcore", "-n", "2", "-s", "4", "-json"}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}

func TestRunFaultyWorkloadExitsFailed(t *testing.T) {
	err := cmdRun([]string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
		"-gc-leak-every", "2", "-trials", "3", "-json"})
	if !errors.Is(err, errFailed) {
		t.Fatalf("want errFailed (exit 1), got %v", err)
	}
}

func TestRunViaStoreCachesAcrossInvocations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
		"-gc-leak-every", "2", "-trials", "2", "-keep-going", "-json", "-store", dir}
	// Cold: executes and stores; the faulty workload exits 1.
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("cold run: want errFailed, got %v", err)
	}
	// Warm: the cached cell must reproduce the verdict without executing.
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("warm run: want errFailed, got %v", err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.DiskEntries != 1 {
		t.Fatalf("two identical runs stored %d cells, want 1", got.DiskEntries)
	}
}

func TestStoreCompactCLIKeepsWarmReplay(t *testing.T) {
	// The CLI acceptance loop: run with -store, `ptest store compact`,
	// run again — the warm run is served entirely from the compacted
	// store and stat shows zero reclaimable bytes.
	dir := filepath.Join(t.TempDir(), "store")
	args := []string{"-pcore", "-n", "8", "-s", "16", "-workload", "quicksort",
		"-gc-leak-every", "2", "-trials", "2", "-keep-going", "-json", "-store", dir}
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("cold run: want errFailed, got %v", err)
	}
	if err := cmdStoreAdmin([]string{"compact", "-dir", dir, "-json"}); err != nil {
		t.Fatalf("store compact: %v", err)
	}
	ds, err := store.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.LiveEntries != 1 || ds.TotalBytes != ds.LiveBytes {
		t.Fatalf("stat after compact: %+v (want 1 live entry, 0 reclaimable)", ds)
	}
	if err := cmdRun(args); !errors.Is(err, errFailed) {
		t.Fatalf("warm run after compact: want errFailed (cached verdict), got %v", err)
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.DiskEntries != 1 {
		t.Fatalf("store grew across compact+warm run: %+v", got)
	}
}

func writeReport(t *testing.T, dir, name string, rate float64) string {
	t.Helper()
	r := &report.Report{
		SchemaVersion: report.SchemaVersion,
		Suite:         "t",
		Cells: []report.Cell{{
			ID: "w/c", Workload: "w", Tool: "adaptive", N: 1,
			Summary: report.CampaignSummary{Trials: 10, BugRate: rate},
		}},
	}
	r.Aggregate()
	path := filepath.Join(dir, name)
	if err := report.WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", 0.5)
	same := writeReport(t, dir, "same.json", 0.5)
	worse := writeReport(t, dir, "worse.json", 0.2)

	if err := cmdCompare([]string{base, same}); err != nil {
		t.Fatalf("identical reports must pass: %v", err)
	}
	if err := cmdCompare([]string{base, worse}); !errors.Is(err, errFailed) {
		t.Fatalf("regression must exit non-zero, got %v", err)
	}
	// A threshold wide enough to absorb the drop passes the gate.
	if err := cmdCompare([]string{"-max-rate-drop", "0.4", base, worse}); err != nil {
		t.Fatalf("drop within threshold must pass: %v", err)
	}
}

func TestSuiteEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{
		"name": "cli-e2e",
		"trials": 1,
		"max_steps": 100000,
		"workloads": [{"name": "spin"}],
		"ops": ["roundrobin"],
		"points": [{"n": 2, "s": 4}],
		"tools": [{"name": "adaptive"}]
	}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "report.json")
	if err := cmdSuite([]string{"-quiet", "-spec", spec, "-out", out, "-canonical"}); err != nil {
		t.Fatal(err)
	}
	rep, err := report.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Tool != "adaptive" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.WallMS != 0 {
		t.Fatal("-canonical left timing fields")
	}
	// The fresh report compared against itself passes the gate.
	if err := cmdCompare([]string{out, out}); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunDumpJournalPrintsFailureRecords(t *testing.T) {
	var runErr error
	out := captureStdout(t, func() {
		runErr = cmdRun([]string{"-pcore", "-n", "16", "-s", "24", "-workload", "quicksort",
			"-gc-leak-every", "2", "-dump-journal"})
	})
	if !errors.Is(runErr, errFailed) {
		t.Fatalf("want errFailed (exit 1), got %v", runErr)
	}
	const header = "--- reproduction journal of first failure ---\n"
	_, journal, ok := strings.Cut(out, header)
	if !ok {
		t.Fatalf("no journal section in output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(journal, "\n"), "\n")
	record := regexp.MustCompile(`^#\d+ t=\d+ task=\d+ \(issue:T[A-Z]+, [a-z]+, [A-Z>-]+, \d+, [A-Z>-]*\)$`)
	for i, line := range lines {
		if !record.MatchString(line) {
			t.Fatalf("journal line %d %q is not a Definition 2 record", i+1, line)
		}
	}
	if !strings.HasPrefix(lines[0], "#1 ") {
		t.Fatalf("journal starts at %q, want the first record", lines[0])
	}
	// One record per completed command.
	m := regexp.MustCompile(`commands issued: (\d+)`).FindStringSubmatch(out)
	if m == nil || m[1] != strconv.Itoa(len(lines)) {
		t.Fatalf("journal has %d records, run reports %v", len(lines), m)
	}
}

// -cpuprofile and -memprofile write non-empty profiles and leave the
// command's output alone: the canonical suite report, and run's JSON
// summary, match a run without them.
func TestProfileFlagsWriteProfilesAndKeepOutput(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	specJSON := `{
		"name": "cli-profile",
		"trials": 2,
		"max_steps": 100000,
		"workloads": [{"name": "philosophers", "rounds": 200}],
		"ops": ["roundrobin"],
		"points": [{"n": 4, "s": 8}],
		"tools": [{"name": "contest"}, {"name": "adaptive"}]
	}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	readNonEmpty := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", path)
		}
		return data
	}
	suiteOut := func(extra ...string) []byte {
		out := filepath.Join(dir, "report.json")
		if err := cmdSuite(append([]string{"-quiet", "-spec", spec, "-out", out, "-canonical"}, extra...)); err != nil {
			t.Fatal(err)
		}
		return readNonEmpty(out)
	}
	cpu, mem := filepath.Join(dir, "suite.cpu"), filepath.Join(dir, "suite.mem")
	plain := suiteOut()
	if profiled := suiteOut("-cpuprofile", cpu, "-memprofile", mem); string(profiled) != string(plain) {
		t.Fatalf("profiled suite report differs:\n%s\nwant\n%s", profiled, plain)
	}
	readNonEmpty(cpu)
	readNonEmpty(mem)

	runArgs := []string{"-pcore", "-n", "2", "-s", "4", "-json"}
	var runErr error
	plainRun := captureStdout(t, func() { runErr = cmdRun(runArgs) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	cpu, mem = filepath.Join(dir, "run.cpu"), filepath.Join(dir, "run.mem")
	profiledRun := captureStdout(t, func() {
		runErr = cmdRun(append([]string{"-cpuprofile", cpu, "-memprofile", mem}, runArgs...))
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if profiledRun != plainRun {
		t.Fatalf("profiled run output differs:\n%s\nwant\n%s", profiledRun, plainRun)
	}
	readNonEmpty(cpu)
	readNonEmpty(mem)
}

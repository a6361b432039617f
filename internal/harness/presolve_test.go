package harness

import (
	"reflect"
	"testing"
	"time"

	"lcm/internal/cryptolib"
	"lcm/internal/detect"
)

// bigBudget removes the per-function truncation budgets. Findings
// equality between pre-solver-on and pre-solver-off runs only holds when
// neither run is cut short: statically skipped queries do not count
// against MaxQueries, so under a tight budget the pre-solver legitimately
// lets the same search go further (that is the point of it). With the
// budgets effectively unbounded, both runs enumerate the same candidate
// space and must agree exactly.
func bigBudget(noPresolve bool) Options {
	return Options{
		Parallelism: 1,
		FuncTimeout: 10 * time.Minute,
		MaxQueries:  1_000_000,
		NoPresolve:  noPresolve,
	}
}

// TestPresolveVerdictInvariantOnSecretbox compares full secretbox sweeps
// (both engines) with the pre-solver on and off.
func TestPresolveVerdictInvariantOnSecretbox(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a full library without budgets")
	}
	if raceDetectorEnabled {
		t.Skip("single-threaded invariance check; race slowdown makes bigBudget bind")
	}
	lib, ok := cryptolib.Lookup("secretbox")
	if !ok {
		t.Fatal("secretbox missing from corpus")
	}
	with, err := RunLibrary(lib, bigBudget(false))
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunLibrary(lib, bigBudget(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(with) != len(without) {
		t.Fatalf("row count differs: %d with pre-solver, %d without", len(with), len(without))
	}
	// The findings contract only holds on budget-unconstrained runs
	// (EXPERIMENTS.md): if the environment is slow enough that bigBudget
	// still binds — e.g. under -race on a loaded machine — the comparison
	// is void, not failed.
	for i := range with {
		w, wo := with[i], without[i]
		if w.TimedOut != 0 || wo.TimedOut != 0 {
			t.Skipf("row %d (%s/%s): budget hit despite bigBudget (with=%d without=%d); comparison void",
				i, w.App, w.Tool, w.TimedOut, wo.TimedOut)
		}
	}
	for i := range with {
		w, wo := with[i], without[i]
		if !reflect.DeepEqual(w.Counts, wo.Counts) {
			t.Errorf("row %d (%s/%s): counts differ: with=%v without=%v",
				i, w.App, w.Tool, w.Counts, wo.Counts)
		}
		if !reflect.DeepEqual(w.Findings, wo.Findings) {
			t.Errorf("row %d (%s/%s): findings differ with pre-solver on/off",
				i, w.App, w.Tool)
		}
	}
}

// TestPresolveVerdictInvariantOnDonnaSTL compares donna under the STL
// engine — the workload where the arch-witness rule discharges every one
// of the baseline's 3314 solver queries — function by function. (The PHT
// sweep is excluded: uncapped it takes minutes on one core, and its
// findings contract is already covered by secretbox above, the litmus
// corpus, and the conformance campaign's presolve oracle.)
func TestPresolveVerdictInvariantOnDonnaSTL(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes a full library without budgets")
	}
	if raceDetectorEnabled {
		t.Skip("single-threaded invariance check; race slowdown makes bigBudget bind")
	}
	lib, ok := cryptolib.Lookup("donna")
	if !ok {
		t.Fatal("donna missing from corpus")
	}
	m, err := compileSrc(lib.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range lib.PublicFuncs {
		cfgOn := clouConfig(detect.STL, bigBudget(false), true, nil)
		cfgOff := clouConfig(detect.STL, bigBudget(true), true, nil)
		with, err := detect.AnalyzeFunc(m, fn, cfgOn)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		without, err := detect.AnalyzeFunc(m, fn, cfgOff)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if with.TimedOut || without.TimedOut {
			// Same void-comparison rule as the secretbox test above.
			t.Skipf("%s: budget hit despite bigBudget; comparison void", fn)
		}
		if !reflect.DeepEqual(with.Findings, without.Findings) {
			t.Errorf("%s: findings differ with pre-solver on/off (with=%d without=%d)",
				fn, len(with.Findings), len(without.Findings))
		}
		if without.SkippedQueries != 0 {
			t.Errorf("%s: baseline run skipped %d queries with the pre-solver disabled",
				fn, without.SkippedQueries)
		}
	}
}

// TestCryptoCorpusAuditClean replays every pre-solver discharge on the
// seven crypto libraries through the SAT encoding: zero disagreements,
// and findings identical to the plain run. The litmus replay
// (clou -litmus all -audit-presolve) never exercises the arch-witness
// rule at this scale — donna's STL sweep alone witnesses thousands of
// queries. Both runs are budget-free (see bigBudget) and restricted to
// UDT/UCT like the Table 2 sweep.
func TestCryptoCorpusAuditClean(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes every crypto library twice without budgets")
	}
	if raceDetectorEnabled {
		t.Skip("single-threaded invariance check; race slowdown makes bigBudget bind")
	}
	audited, disagreed := 0, 0
	for _, lib := range cryptolib.All() {
		opts := bigBudget(false)
		opts.CryptoUniversalOnly = true
		plain, err := RunLibrary(lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.AuditPresolve = true
		audit, err := RunLibrary(lib, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range audit {
			p, a := plain[i], audit[i]
			if p.TimedOut != 0 || a.TimedOut != 0 {
				t.Skipf("%s/%s: budget hit despite bigBudget; comparison void", a.App, a.Tool)
			}
			if a.Disagreements != 0 {
				t.Errorf("%s/%s: %d of %d audited discharges disagree with SAT", a.App, a.Tool, a.Disagreements, a.Audited)
			}
			if !reflect.DeepEqual(p.Findings, a.Findings) {
				t.Errorf("%s/%s: findings differ between the plain and the audited run", a.App, a.Tool)
			}
			audited += a.Audited
			disagreed += a.Disagreements
		}
	}
	if audited == 0 {
		t.Fatal("no discharge was audited")
	}
	t.Logf("audited=%d disagreements=%d", audited, disagreed)
}

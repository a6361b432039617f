package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"lcm/internal/core"
	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/harness"
	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/obsv"
)

// cryptoWorkload is crypto-sweep and crypto-audit: every public function
// of the Table 2 corpus under Clou-pht and Clou-stl, UDT/UCT only, with
// default budgets. The seed permutes the order in which libraries are
// submitted; the items themselves are fixed.
type cryptoWorkload struct {
	libs  []cryptolib.Library // in submission order
	audit bool
	want  map[string]string
}

// cryptoEngines are the engines harness.RunLibrary runs, in its order.
var cryptoEngines = []detect.Engine{detect.PHT, detect.STL}

func newCryptoWorkload(cfg config) *cryptoWorkload {
	var libs []cryptolib.Library
	for _, l := range cryptolib.All() {
		if cfg.libs == nil || slices.Contains(cfg.libs, l.Name) {
			libs = append(libs, l)
		}
	}
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(libs))
	w := &cryptoWorkload{audit: cfg.workload == cryptoAudit, want: cfg.want.Crypto}
	for _, i := range perm {
		w.libs = append(w.libs, libs[i])
	}
	return w
}

func (w *cryptoWorkload) pins() map[string]string { return w.want }

func (w *cryptoWorkload) size() map[string]any {
	names := make([]string, len(w.libs))
	funcs := 0
	for i, l := range w.libs {
		names[i] = l.Name
		funcs += len(l.PublicFuncs)
	}
	return map[string]any{"libraries": names, "functions": funcs, "items_per_pass": funcs * len(cryptoEngines)}
}

func (w *cryptoWorkload) options(j int, reg *obsv.Registry) harness.Options {
	return harness.Options{Parallelism: j, CryptoUniversalOnly: true, AuditPresolve: w.audit, Metrics: reg}
}

// setup compiles the corpus. The first round fills the harness's
// process-wide compile cache (RunLibrary over a copy of each library with
// no functions to analyze compiles the source and stops); that cache
// cannot be reset, so later rounds repeat the same parse and lower
// directly.
func (w *cryptoWorkload) setup(first bool) error {
	for _, lib := range w.libs {
		if first {
			bare := lib
			bare.PublicFuncs = nil
			if _, err := harness.RunLibrary(bare, w.options(1, nil)); err != nil {
				return err
			}
			continue
		}
		f, err := minic.Parse(lib.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", lib.Name, err)
		}
		if _, err := lower.Module(f); err != nil {
			return fmt.Errorf("%s: %w", lib.Name, err)
		}
	}
	return nil
}

// pass sweeps the corpus once at j workers from a cold frontend cache,
// as a CLI run would, and checks every item's verdict.
func (w *cryptoWorkload) pass(j int, bk *book, _ *tracer) (time.Duration, int, error) {
	harness.ResetFrontendCache()
	reg := obsv.NewRegistry()
	rows := make([][]harness.Row, len(w.libs))
	start := time.Now()
	for i, lib := range w.libs {
		r, err := harness.RunLibrary(lib, w.options(j, reg))
		if err != nil {
			return 0, 0, err
		}
		rows[i] = r
	}
	wall := time.Since(start)

	items := 0
	for i, lib := range w.libs {
		for ei, row := range rows[i] {
			byFn := map[string][]detect.Finding{}
			for _, f := range row.Findings {
				byFn[f.Fn] = append(byFn[f.Fn], f)
			}
			for _, fn := range lib.PublicFuncs {
				verdict, dg := cryptoVerdict(byFn[fn])
				bk.check(cryptoItem(lib.Name, fn, cryptoEngines[ei]), verdict, dg, false)
				items++
			}
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counters["detect.timeouts"] + snap.Counters["detect.budget_hits"]; n > 0 {
		bk.fail(false, "%d item(s) timed out or hit a budget at -j %d", n, j)
	}
	if n := snap.Counters["presolve.disagreements"]; n > 0 {
		bk.fail(true, "%d presolve/SAT disagreement(s) at -j %d", n, j)
	}
	return wall, items, nil
}

func cryptoItem(lib, fn string, e detect.Engine) string {
	return lib + "/" + fn + "/" + e.String()
}

// cryptoVerdict renders one function's findings as its class counts, one
// count per static transmitter (as detect.Result.Counts counts them), and
// digests the findings themselves.
func cryptoVerdict(fs []detect.Finding) (string, string) {
	counts := map[core.Class]int{}
	seen := map[[2]int]bool{}
	for _, f := range fs {
		k := [2]int{f.Transmit, int(f.Class)}
		if !seen[k] {
			seen[k] = true
			counts[f.Class]++
		}
	}
	return fmt.Sprintf("DT=%d CT=%d UDT=%d UCT=%d",
		counts[core.DT], counts[core.CT], counts[core.UDT], counts[core.UCT]), digest(findingLines(fs))
}

// findingLines renders each finding with all its fields.
func findingLines(fs []detect.Finding) []string {
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = fmt.Sprintf("%+v", f)
	}
	return lines
}

// traced runs every item once, serially, calling each layer itself:
// parse and lower once per library, then traceItem per (function,
// engine) with the configuration harness.RunLibrary uses.
func (w *cryptoWorkload) traced(tr *tracer, bk *book) error {
	for _, lib := range w.libs {
		ls := tr.begin(-1, "library", lib.Name)
		m, err := traceCompile(tr, ls, lib.Name, lib.Source)
		if err != nil {
			return err
		}
		for _, e := range cryptoEngines {
			for _, fn := range lib.PublicFuncs {
				item := cryptoItem(lib.Name, fn, e)
				res, err := traceItem(tr, ls, item, m, fn, w.detectConfig(e), bk)
				if err != nil {
					return err
				}
				verdict, dg := cryptoVerdict(res.Findings)
				bk.check(item, verdict, dg, res.TimedOut || res.BudgetHit || res.Fault != nil)
			}
		}
		tr.end(ls)
	}
	return nil
}

// detectConfig mirrors the per-function configuration harness.RunLibrary
// builds from harness.Options defaults at one worker.
func (w *cryptoWorkload) detectConfig(e detect.Engine) detect.Config {
	cfg := detect.DefaultConfig(e)
	cfg.Timeout = 20 * time.Second
	cfg.MaxQueries = 4000
	cfg.ShardWorkers = 1
	cfg.AuditPresolve = w.audit
	cfg.Transmitters = []core.Class{core.UDT, core.UCT}
	return cfg
}

// traceCompile parses and lowers src under two spans and counts its
// tokens and instructions.
func traceCompile(tr *tracer, parent int, item, src string) (*ir.Module, error) {
	var (
		f *minic.File
		m *ir.Module
	)
	if _, err := tr.call(parent, "minic.parse", item, func() (err error) { f, err = minic.Parse(src); return err }); err != nil {
		return nil, fmt.Errorf("%s: %w", item, err)
	}
	if _, err := tr.call(parent, "lower.module", item, func() (err error) { m, err = lower.Module(f); return err }); err != nil {
		return nil, fmt.Errorf("%s: %w", item, err)
	}
	toks, err := minic.Lex(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", item, err)
	}
	tr.add("minic.tokens", float64(len(toks)))
	for _, fn := range m.Funcs {
		for _, b := range fn.Blocks {
			tr.add("lower.instrs", float64(len(b.Instrs)))
		}
	}
	return m, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/presolve"
	"lcm/internal/taint"
)

// span is one traced call: a layer's public entry point (or a grouping
// such as one item) with the span that caused it. Times are nanoseconds
// since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Item   string `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans, work counts and per-item records in memory until
// the run ends. The traced pass is serial, so it needs no locking. A nil
// tracer records nothing.
type tracer struct {
	t0     time.Time
	spans  []span
	values map[string]float64 // counts and outside-derived times, by metric name
	items  []itemRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string]float64{}} }

// add accumulates v into the named metric.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.values[name] += v
	}
}

func (t *tracer) begin(parent int, name, item string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Item: item,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// call runs f as span name under parent and returns its wall time.
func (t *tracer) call(parent int, name, item string, f func() error) (time.Duration, error) {
	id := t.begin(parent, name, item)
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerMetric describes one per-layer metric. Span-derived times are the
// summed self time of every span with that name; the others are filled
// by the workload's traced pass.
type layerMetric struct {
	Name string
	Unit string
	Span string // span name whose self time this is ("" if not span-derived)
	// Line is true for the metrics the result line carries (BENCHMARK.json's
	// per_layer list). The rest are times of layers only one workload runs;
	// they read 0 elsewhere, so they stay in the table and the trace file.
	Line bool
}

// layerMetrics lists every per-layer metric in pipeline order.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"minic.parse_ms", "ms", "minic.parse", true},
		{"minic.tokens", "count", "", true},
		{"lower.module_ms", "ms", "lower.module", true},
		{"lower.instrs", "count", "", true},
		{"acfg.build_ms", "ms", "acfg.build", true},
		{"acfg.nodes", "count", "", true},
		{"alias.analyze_ms", "ms", "alias.analyze", true},
		{"taint.analyze_ms", "ms", "taint.analyze", true},
		{"dataflow.ranges_ms", "ms", "dataflow.ranges", true},
		{"aeg.build_ms", "ms", "aeg.build", true},
		{"aeg.build_share", "ratio", "", true},
		{"presolve.facts_ms", "ms", "presolve.facts", true},
		{"presolve.discharged", "count", "", true},
		{"presolve.skipped_queries", "count", "", true},
		{"presolve.disagreements", "count", "", true},
		{"detect.analyze_ms", "ms", "detect.analyze", true},
		{"detect.cached_ms", "ms", "detect.cached", true},
		{"detect.self_ms", "ms", "", true},
		{"detect.candidates", "count", "", true},
		{"detect.pruned", "count", "", true},
		{"detect.findings", "count", "", true},
		{"detect.nodes", "count", "", true},
		{"sat.queries", "count", "", true},
		{"sat.decisions", "count", "", true},
		{"sat.propagations", "count", "", true},
		{"sat.conflicts", "count", "", true},
		{"smt.model_hits", "count", "", true},
		{"smt.memo_hits", "count", "", true},
		{"sat.audit_ms", "ms", "", true},
		{"repair.repair_ms", "ms", "repair.repair", false},
		{"repair.rounds", "count", "", true},
		{"repair.fences", "count", "", true},
		{"repair.fence_search_ms", "ms", "", false},
		{"progen.generate_ms", "ms", "progen.generate", false},
		{"progen.check_ms", "ms", "progen.check", false},
	}
	for _, o := range oracleNames {
		ms = append(ms, layerMetric{"progen.oracle_ms." + o, "ms", "progen.oracle." + o, false})
	}
	return append(ms,
		layerMetric{"progen.failures", "count", "", true},
		layerMetric{"campstore.open_ms", "ms", "campstore.open", false},
		layerMetric{"campstore.reopen_ms", "ms", "campstore.reopen", false},
		layerMetric{"campstore.wal_appends", "count", "", true},
		layerMetric{"campstore.fsyncs", "count", "", true},
		layerMetric{"harness.parallel_speedup", "ratio", "", true},
		layerMetric{"trace.overhead", "ratio", "", true},
	)
}()

// itemRecord is one item's per-layer times (ms) and counts, kept in the
// trace file so per-item sums can be checked.
type itemRecord struct {
	Item   string             `json:"item"`
	Ms     map[string]float64 `json:"ms"`
	Counts map[string]int64   `json:"counts"`
}

// frontendLayers are the layers traceItem times before the detector, in
// pipeline order; detect.self_ms is the uncached detect time minus their
// sum.
var frontendLayers = []string{"acfg.build", "alias.analyze", "taint.analyze", "dataflow.ranges", "aeg.build", "presolve.facts"}

// traceItem calls, for one (function, engine) item, each layer's public
// entry point in pipeline order, then the detector three times: uncached
// (filling a fresh detect.Cache), again on that warm cache, and with the
// opposite AuditPresolve setting, whose time difference is the SAT
// replay cost. It returns the result under cfg itself. The layer times
// are an outside estimate of their share of the uncached detect time:
// on functions analyzed in a few milliseconds, cache warmth and
// collection timing can make detect.self read below zero for the item.
func traceItem(tr *tracer, parent int, item string, m *ir.Module, fn string, cfg detect.Config, bk *book) (*detect.Result, error) {
	is := tr.begin(parent, "item", item)
	defer tr.end(is)
	rec := itemRecord{Item: item, Ms: map[string]float64{}, Counts: map[string]int64{}}
	step := func(name string, f func() error) error {
		// Start each step from a collected heap, so that a step is not
		// charged for collecting the garbage of the steps before it.
		runtime.GC()
		d, err := tr.call(is, name, item, f)
		rec.Ms[name] = ms(d)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", item, name, err)
		}
		return nil
	}
	infallible := func(name string, f func()) {
		step(name, func() error { f(); return nil })
	}
	var (
		g   *acfg.Graph
		al  *alias.Analysis
		mr  *dataflow.ModuleRanges
		res *detect.Result
		alt *detect.Result
	)
	if err := step("acfg.build", func() (err error) { g, err = acfg.Build(m, fn, cfg.ACFG); return err }); err != nil {
		return nil, err
	}
	infallible("alias.analyze", func() { al = alias.Analyze(g) })
	infallible("taint.analyze", func() { taint.Analyze(g, al) })
	infallible("dataflow.ranges", func() {
		// The detector's pruner fills ranges lazily per function; compute
		// them for every function the A-CFG inlines.
		mr = dataflow.NewModuleRanges(m)
		for _, n := range g.Nodes {
			if n.Instr != nil && n.Instr.Blk != nil {
				mr.ForFunc(n.Instr.Blk.Fn)
			}
		}
	})
	infallible("aeg.build", func() { aeg.Build(g, al, cfg.AEG) })
	infallible("presolve.facts", func() { presolve.NewFacts(g, al, mr) })

	run := cfg
	run.Cache = detect.NewCache()
	if err := step("detect.analyze", func() (err error) { res, err = detect.AnalyzeFunc(m, fn, run); return err }); err != nil {
		return nil, err
	}
	if err := step("detect.cached", func() error {
		again, err := detect.AnalyzeFunc(m, fn, run)
		if err == nil && !again.CacheHit {
			err = fmt.Errorf("second analysis missed the frontend cache")
		}
		return err
	}); err != nil {
		return nil, err
	}
	other := cfg
	other.AuditPresolve = !cfg.AuditPresolve
	if err := step("detect.audit_flip", func() (err error) { alt, err = detect.AnalyzeFunc(m, fn, other); return err }); err != nil {
		return nil, err
	}

	self := rec.Ms["detect.analyze"]
	for _, l := range frontendLayers {
		self -= rec.Ms[l]
	}
	audited, plain := alt, res
	auditMs, plainMs := rec.Ms["detect.audit_flip"], rec.Ms["detect.analyze"]
	if cfg.AuditPresolve {
		audited, plain = res, alt
		auditMs, plainMs = plainMs, auditMs
	}
	rec.Ms["detect.self"] = self
	rec.Ms["sat.audit"] = auditMs - plainMs
	tr.add("detect.self_ms", self)
	tr.add("sat.audit_ms", rec.Ms["sat.audit"])
	if audited.PresolveDisagreements > 0 {
		bk.fail(true, "%s: %d presolve/SAT disagreement(s)", item, audited.PresolveDisagreements)
	}
	if digest(findingLines(audited.Findings)) != digest(findingLines(plain.Findings)) {
		bk.fail(true, "%s: findings differ with and without the presolve audit", item)
	}
	counts := map[string]int64{
		"acfg.nodes":               int64(g.Len()),
		"detect.nodes":             int64(res.NodeCount),
		"detect.candidates":        int64(res.Candidates),
		"detect.pruned":            int64(res.Pruned),
		"detect.findings":          int64(len(res.Findings)),
		"presolve.discharged":      int64(res.Discharged),
		"presolve.skipped_queries": int64(res.SkippedQueries),
		"presolve.disagreements":   int64(audited.PresolveDisagreements),
		"sat.queries":              int64(res.Queries),
		"sat.decisions":            res.Decisions,
		"sat.propagations":         res.Propagations,
		"sat.conflicts":            res.Conflicts,
		"smt.model_hits":           res.ModelCacheHits,
		"smt.memo_hits":            int64(res.MemoHits),
	}
	for k, v := range counts {
		rec.Counts[k] = v
		tr.add(k, float64(v))
	}
	tr.items = append(tr.items, rec)
	return res, nil
}

// runTraced is the -trace 1 run: one traced serial pass calling every
// layer, then one untraced pass at each width for the parallel speedup
// and the tracing overhead (the serial pass records only a few
// phase-level spans, such as the campaign store's). Spans, per-item
// records and metrics are written to
// <work-dir>/traces/<workload>-seed<seed>.json at the end.
func runTraced(cfg config, w workload, meta map[string]any) (*result, error) {
	// Set up as the untraced run does, so the untraced passes below do
	// not pay the first compile.
	if err := w.setup(true); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	bk := newBook(w.pins())
	tr := newTracer()
	start := time.Now()
	if err := w.traced(tr, bk); err != nil {
		return nil, err
	}
	tracedWall := time.Since(start)

	wide := runtime.GOMAXPROCS(0)
	serial, err := timePass(w, 1, bk, tr)
	if err != nil {
		return nil, err
	}
	speedup := 1.0
	if wide > 1 {
		full, err := timePass(w, wide, bk, nil)
		if err != nil {
			return nil, err
		}
		speedup = full.rate() / serial.rate()
	}
	tr.values["harness.parallel_speedup"] = speedup
	tr.values["trace.overhead"] = tracedWall.Seconds() / serial.wall.Seconds()

	self := selfTimes(tr.spans)
	spanMs := map[string]float64{} // summed self time by span name
	for i, s := range tr.spans {
		spanMs[s.Name] += ms(self[i])
	}
	if a := spanMs["detect.analyze"]; a > 0 {
		tr.values["aeg.build_share"] = spanMs["aeg.build"] / a
	}
	res := &result{Correct: bk.ok(), Attempted: bk.attempted, Failed: bk.failedItems()}
	for _, lm := range layerMetrics {
		v := tr.values[lm.Name]
		if lm.Span != "" {
			v = spanMs[lm.Span]
		}
		res.Metrics = append(res.Metrics, metric{lm.Name, v, lm.Unit})
		if lm.Line {
			res.Line = append(res.Line, lm.Name)
		}
	}
	if err := bk.report(os.Stderr, cfg.workDir, cfg.workload, meta); err != nil {
		return nil, err
	}
	return res, writeTrace(cfg, meta, tr, self, res)
}

// writeTrace writes the run's spans (with self times), per-item records
// and metrics as one JSON file.
func writeTrace(cfg config, meta map[string]any, tr *tracer, self []time.Duration, res *result) error {
	dir := filepath.Join(cfg.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type spanOut struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	spans := make([]spanOut, len(tr.spans))
	for i, s := range tr.spans {
		spans[i] = spanOut{s, self[i].Nanoseconds()}
	}
	metrics := map[string]metric{}
	for _, m := range res.Metrics {
		metrics[m.Name] = m
	}
	data, err := json.MarshalIndent(map[string]any{
		"meta": meta, "metrics": metrics, "items": tr.items, "spans": spans,
	}, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

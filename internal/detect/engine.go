package detect

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/core"
	"lcm/internal/dataflow"
	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/ir"
	"lcm/internal/obsv"
	"lcm/internal/presolve"
	"lcm/internal/sat"
	"lcm/internal/smt"
	"lcm/internal/taint"
)

// Engine selects the speculation primitive searched for (§5.3).
type Engine int

// The engines, one per modeled speculation/optimization primitive
// (Table 1's taxonomy beyond branch prediction).
const (
	PHT Engine = iota // control-flow speculation (Spectre v1, v1.1)
	STL               // store-to-load bypass (Spectre v4)
	PSF               // speculative store forwarding via alias prediction
	IMP               // indirect memory prefetcher (Fig. 5b)
	SS                // silent stores (Fig. 5a)
)

func (e Engine) String() string {
	switch e {
	case STL:
		return "clou-stl"
	case PSF:
		return "clou-psf"
	case IMP:
		return "clou-imp"
	case SS:
		return "clou-ss"
	}
	return "clou-pht"
}

// ParseEngine maps a CLI engine name ("pht", "stl", "psf", "imp", "ss",
// or the full "clou-…" form) to its Engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "pht", "clou-pht":
		return PHT, nil
	case "stl", "clou-stl":
		return STL, nil
	case "psf", "clou-psf":
		return PSF, nil
	case "imp", "clou-imp":
		return IMP, nil
	case "ss", "clou-ss":
		return SS, nil
	}
	return PHT, fmt.Errorf("unknown engine %q (want pht, stl, psf, imp, or ss)", name)
}

// Engines lists every engine in presentation order.
func Engines() []Engine { return []Engine{PHT, STL, PSF, IMP, SS} }

// Config parameterizes an analysis run.
type Config struct {
	Engine Engine
	// Transmitters restricts the classes searched for; empty means all of
	// DT, CT, UDT, UCT.
	Transmitters []core.Class
	// ACFG and AEG bounds.
	ACFG acfg.Options
	AEG  aeg.Options
	// RequireGEP applies the addr_gep filter to universal patterns
	// (Clou-pht's default; unusable for STL, §5.3).
	RequireGEP bool
	// RequireTaint filters universal candidates whose access address is
	// not attacker-steerable (§5.3 taint tracking).
	RequireTaint bool
	// MaxQueries bounds solver calls per function (0 = unlimited).
	MaxQueries int
	// MaxConflicts bounds per-query CDCL effort (0 = unlimited). Unlike
	// Timeout it is deterministic, so budget-degraded results are
	// byte-reproducible; exhaustion is classified faults.ErrBudget, never
	// misread as UNSAT.
	MaxConflicts int64
	// Timeout bounds wall time per function (0 = unlimited); the paper
	// imposes per-function timeouts in Table 2.
	Timeout time.Duration
	// TriageOnly switches the detector to the range-prune-only triage
	// rung: structural candidate enumeration, pruning, and taint filtering
	// still run, but every solver query is answered optimistically true
	// without search. Findings are then a sound over-approximation — no
	// leak the full analysis would report is missed — at the price of
	// possible false positives; consumers see the precision loss through
	// Result.Rung.
	TriageOnly bool
	// InjectKey identifies this analysis to the fault-injection probes
	// (internal/faultinject); empty means the function name. The
	// degradation ladder appends its rung so retried attempts make fresh
	// injection decisions.
	InjectKey string
	// Pruner is the range-analysis prune hook: universal candidates it
	// discharges are skipped before taint filtering and solver queries.
	// Pruning only removes the universality claim — a discharged pattern
	// may still be reported by the DT/CT stages, which is where an
	// in-bounds table access (it leaks the table's contents, not
	// attacker-chosen memory) belongs in the taxonomy.
	// Leave nil to install the default dataflow pruner; set NoPrune to
	// disable pruning entirely (the ablation baseline).
	Pruner  Pruner
	NoPrune bool
	// NoPresolve disables the proof-carrying static pre-solver
	// (internal/presolve), the ablation baseline: every candidate query
	// goes to the solver. Presolve is also off on the triage rung, whose
	// contract is "no search at all".
	NoPresolve bool
	// AuditPresolve keeps the pre-solver's verdicts advisory: every
	// statically refuted query is still sent to the solver, the two
	// answers are compared, and any disagreement is counted on the result
	// and flagged on the certificate. Findings under audit are exactly the
	// no-presolve findings.
	AuditPresolve bool
	// ShardWorkers is ignored: the candidate search is single-threaded
	// per function, and parallelism comes from analyzing functions
	// concurrently (harness.Options.Parallelism).
	//
	// Deprecated: intra-function sharding was removed once the candidate
	// loop's kernels stopped being graph-sized per candidate; the field
	// stays only until its last setter, the benchmark program, drops it.
	ShardWorkers int
	// Cache, when non-nil, memoizes the engine-independent front end
	// (A-CFG, alias, taint, reachability, value flow) per (module,
	// function), sharing it between the PHT and STL engines and across
	// concurrent workers. The module must not be mutated while the cache
	// is live; repair therefore always runs uncached.
	Cache *Cache
	// Span, when non-nil, is the parent observability span: each analyzed
	// function records a "fn:<name>" child with frontend/encode/search
	// stage children underneath. Nil (the default) disables tracing at
	// zero cost.
	Span *obsv.Span
	// Metrics, when non-nil, receives the run's counters and per-stage
	// latency histograms (detect.* and sat.* names).
	Metrics *obsv.Registry
}

// Pruner discharges universal candidates with static value-range facts.
// Implementations must be sound under the engines' speculation models:
// InBoundsAccess may use any CFG-valid fact (PHT wrong paths are still
// CFG paths), while DisjointPair must not rely on values read from
// memory, since STL bypass makes loads return stale data.
type Pruner interface {
	// InBoundsAccess reports that the load/store provably stays inside
	// its base object, so it cannot read attacker-chosen memory and
	// cannot serve as a universal-transmitter access.
	InBoundsAccess(in *ir.Instr) bool
	// DisjointPair reports that the store and load provably touch
	// disjoint bytes of one object, so the load cannot observe the
	// store being bypassed.
	DisjointPair(store, load *ir.Instr) bool
}

// DefaultPHT returns the paper's Clou-pht configuration (ROB/LSQ 250/50).
func DefaultPHT() Config {
	return Config{Engine: PHT, RequireGEP: true, RequireTaint: true}
}

// DefaultSTL returns the paper's Clou-stl configuration; addr_gep cannot
// filter STL leaks (a stale pointer load may be attacker-controlled).
func DefaultSTL() Config {
	return Config{Engine: STL, RequireGEP: false, RequireTaint: true}
}

// DefaultPSF returns the Clou-psf configuration. Like STL, addr_gep
// cannot filter PSF leaks — the wrongly forwarded value may be any
// in-flight store's data, pointer or not.
func DefaultPSF() Config {
	return Config{Engine: PSF, RequireGEP: false, RequireTaint: true}
}

// DefaultIMP returns the Clou-imp configuration. The prefetcher trains
// only on dependent load pairs whose index feeds a GEP index, so the
// addr_gep filter is structural here, not an approximation.
func DefaultIMP() Config {
	return Config{Engine: IMP, RequireGEP: true, RequireTaint: true}
}

// DefaultSS returns the Clou-ss configuration.
func DefaultSS() Config {
	return Config{Engine: SS, RequireGEP: false, RequireTaint: true}
}

// DefaultConfig returns the engine's default configuration.
func DefaultConfig(e Engine) Config {
	switch e {
	case STL:
		return DefaultSTL()
	case PSF:
		return DefaultPSF()
	case IMP:
		return DefaultIMP()
	case SS:
		return DefaultSS()
	}
	return DefaultPHT()
}

// Finding is one detected transmitter with its witness context.
type Finding struct {
	Fn       string
	Class    core.Class
	Transmit int // A-CFG node of the transmitting access
	Access   int // access instruction (-1 for AT)
	Index    int // index instruction (-1 unless universal)
	// Branch is the mis-speculating branch (PHT); Store/Load the bypass
	// pair (STL); unused fields are -1.
	Branch int
	Store  int
	Load   int
	// TransientTransmit / TransientAccess report whether the witness
	// executes those instructions transiently.
	TransientTransmit bool
	TransientAccess   bool
	// Line is the source line of the transmitter.
	Line int
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s transmitter at node %d (line %d)", f.Fn, f.Class, f.Transmit, f.Line)
	if f.Branch >= 0 {
		s += fmt.Sprintf(", speculation primitive: branch %d", f.Branch)
	}
	switch {
	case f.Store >= 0 && f.Transmit == f.Store:
		s += fmt.Sprintf(", silent store %d, secret feeder load %d", f.Store, f.Access)
	case f.Store >= 0:
		s += fmt.Sprintf(", bypassed store %d → stale load %d", f.Store, f.Load)
	case f.Branch < 0 && f.Load >= 0 && f.Index >= 0:
		s += fmt.Sprintf(", trained load pair: index %d → data %d, prefetch past index %d", f.Load, f.Access, f.Index)
	}
	return s
}

// Result aggregates one function's analysis.
type Result struct {
	Fn        string
	Findings  []Finding
	NodeCount int // S-AEG size (Fig. 8's x-axis)
	Duration  time.Duration
	Queries   int
	TimedOut  bool
	// BudgetHit reports that a step budget (MaxQueries or MaxConflicts)
	// bound the search before it finished; the findings present are valid
	// but the absence of further findings is not proven.
	BudgetHit bool
	// Fault carries the classified fault (faults taxonomy) that aborted
	// the search mid-analysis, nil for a clean run. Injected probe faults
	// land here; the supervisor reads it to pick the next ladder rung.
	Fault error
	// Rung is the degradation-ladder rung this result was decided at
	// (RungFull for a direct AnalyzeFunc call); Failure names the fault
	// kind that forced the final downgrade ("" unless Rung is
	// RungUnknown). Both are set by AnalyzeFuncLadder.
	Rung    Rung
	Failure string
	// Attempts counts ladder attempts consumed (1 for an undegraded run).
	Attempts int
	// Candidates counts universal candidates examined (distinct access
	// loads for PHT, bypassable store/load pairs for STL); Pruned counts
	// those discharged statically by the Prune hook.
	Candidates int
	Pruned     int
	// Pre-solver accounting. Discharged counts candidates retired without
	// any solver work: range-rule discharges (one per pruned candidate when
	// the pre-solver could certify the prune) plus window-rule candidates
	// all of whose queries were statically refuted. SkippedQueries counts
	// the solver calls avoided (always 0 under audit, where refuted queries
	// still run). PresolveAudited/PresolveDisagreements count audit replays
	// and the replays that contradicted a certificate.
	Discharged            int
	SkippedQueries        int
	PresolveAudited       int
	PresolveDisagreements int
	// Certificates holds the machine-checkable refutation proofs emitted
	// by the pre-solver, in candidate-enumeration order, deduplicated by
	// certificate key.
	Certificates []*presolve.Certificate
	// Per-stage wall times: FrontendTime covers A-CFG + alias + taint +
	// reachability + value flow (near zero on a cache hit), EncodeTime
	// the S-AEG construction (its windows and solver encoding, whenever
	// the search first needed them), SolveTime the accumulated solver
	// queries.
	FrontendTime time.Duration
	EncodeTime   time.Duration
	SolveTime    time.Duration
	// Frontend sub-stage wall times, for attributing a frontend
	// regression without re-profiling: AliasTime and FlowTime cover the
	// points-to fixpoint and value-flow CSR construction (zero on a cache
	// hit — the builder paid them), PresolveFactsTime the pre-solver's
	// shared fact base (zero when a sibling engine already built it).
	AliasTime         time.Duration
	FlowTime          time.Duration
	PresolveFactsTime time.Duration
	// CacheHit reports whether the front end came from Config.Cache;
	// MemoHits counts queries answered by the solver's verdict memo.
	CacheHit bool
	MemoHits int
	// CDCL search-effort counters harvested from the function's solver.
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	// Incremental-solving counters: PrefixLits is the summed
	// prefix-reuse depth across the query sweep, RootUnits the facts
	// promoted to the root level, TseitinGates/TseitinShared the And/Or
	// gates requested and the ones answered from the hash-cons table
	// without fresh auxiliary variables. All are deterministic for a
	// fixed query sequence and safe to pin in normalized reports.
	PrefixLits    int64
	RootUnits     int64
	TseitinGates  int64
	TseitinShared int64
	// ModelCacheHits counts queries answered Sat by extending the last
	// model over newly encoded gates instead of searching.
	ModelCacheHits int64
	// Solver self-check accounting (Config.AEG.SolverMode == smt.ModeCheck):
	// verdicts replayed on a fresh reference solver, and disagreements
	// (any nonzero SolverMismatches is an incremental-soundness bug).
	SolverChecks     int64
	SolverMismatches int64
	// Graph and AEG are retained for witness rendering and repair.
	Graph *acfg.Graph
	AEG   *aeg.AEG
}

// Counts tallies findings by class, one count per static transmitter.
func (r *Result) Counts() map[core.Class]int {
	m := map[core.Class]int{}
	seen := map[[2]int]bool{}
	for _, f := range r.Findings {
		k := [2]int{f.Transmit, int(f.Class)}
		if seen[k] {
			continue
		}
		seen[k] = true
		m[f.Class]++
	}
	return m
}

// AnalyzeFunc runs one engine over one function.
func AnalyzeFunc(m *ir.Module, fn string, cfg Config) (*Result, error) {
	return AnalyzeFuncCtx(context.Background(), m, fn, cfg)
}

// AnalyzeFuncCtx is AnalyzeFunc under a context: cancellation (or the
// cfg.Timeout deadline layered on top of ctx) aborts promptly, even in
// the middle of a long solver query, and marks the result TimedOut.
func AnalyzeFuncCtx(ctx context.Context, m *ir.Module, fn string, cfg Config) (*Result, error) {
	start := time.Now()
	fnSpan := cfg.Span.Start("fn:" + fn)
	defer fnSpan.End()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	key := cfg.InjectKey
	if key == "" {
		key = fn
	}

	var (
		fe  *frontend
		hit bool
		err error
	)
	feSpan := fnSpan.Start("frontend")
	if err = faultinject.Error(faultinject.ProbeCacheLookup, key); err == nil {
		if cfg.Cache != nil {
			fe, hit, err = cfg.Cache.frontend(m, fn, cfg.ACFG)
		} else {
			fe, err = buildFrontend(m, fn, cfg.ACFG)
		}
	}
	feSpan.End()
	if err != nil {
		return nil, err
	}
	frontendTime := time.Since(start)

	// Frontend construction is not interruptible; if it alone consumed the
	// budget, report the timeout without encoding or searching.
	if ctx.Err() != nil {
		res := &Result{
			Fn: fn, NodeCount: fe.g.Len(), Graph: fe.g,
			FrontendTime: frontendTime, CacheHit: hit,
			TimedOut: true, Duration: time.Since(start),
		}
		res.record(cfg.Metrics)
		return res, nil
	}

	encSpan := fnSpan.Start("encode")
	encodeStart := time.Now()
	if err := faultinject.Error(faultinject.ProbeAEGBuild, key); err != nil {
		encSpan.End()
		return nil, err
	}
	a := aeg.Build(fe.g, fe.al, cfg.AEG)
	if cfg.MaxConflicts > 0 {
		a.SetBudget(sat.Budget{Conflicts: cfg.MaxConflicts})
	}
	encodeTime := time.Since(encodeStart)
	encSpan.End()
	if ctx.Err() != nil {
		res := &Result{
			Fn: fn, NodeCount: fe.g.Len(), Graph: fe.g, AEG: a,
			FrontendTime: frontendTime, EncodeTime: encodeTime, CacheHit: hit,
			TimedOut: true, Duration: time.Since(start),
		}
		res.record(cfg.Metrics)
		return res, nil
	}

	pruner := cfg.Pruner
	if pruner == nil && !cfg.NoPrune {
		if cfg.Cache != nil {
			pruner = cfg.Cache.pruner(m)
		} else {
			pruner = dataflow.NewPruner(m)
		}
	}
	var ps *presolve.Analysis
	var psFactsTime time.Duration
	if !cfg.NoPresolve && !cfg.TriageOnly {
		var mr *dataflow.ModuleRanges
		if dp, ok := pruner.(*dataflow.Pruner); ok {
			mr = dp.Ranges()
		}
		psStart := time.Now()
		facts := fe.presolveFacts(mr)
		psFactsTime = time.Since(psStart)
		ps = presolve.NewAnalysis(facts, a)
	}
	var aliasTime, flowTime time.Duration
	if !hit {
		aliasTime, flowTime = fe.aliasTime, fe.flowTime
	}
	d := &detector{
		ctx: ctx, cfg: cfg, key: key, g: fe.g, al: fe.al, ta: fe.ta, a: a,
		res: &Result{
			Fn: fn, NodeCount: fe.g.Len(), Graph: fe.g, AEG: a,
			FrontendTime: frontendTime, EncodeTime: encodeTime, CacheHit: hit,
			AliasTime: aliasTime, FlowTime: flowTime, PresolveFactsTime: psFactsTime,
		},
		cfgReach: fe.cfgReach,
		flow:     fe.flow,
		pruner:   pruner,
		ps:       ps,
	}
	searchSpan := fnSpan.Start("search")
	d.run()
	searchSpan.End()
	d.res.Decisions, d.res.Propagations, d.res.Conflicts, d.res.Restarts = a.SolverStats()
	inc := a.IncrementalStats()
	d.res.PrefixLits, d.res.RootUnits = inc.PrefixLits, inc.RootUnits
	d.res.TseitinGates, d.res.TseitinShared = a.EncodeStats()
	d.res.SolverChecks, d.res.SolverMismatches = a.SelfCheckStats()
	d.res.ModelCacheHits = a.ModelCacheHits()
	d.res.EncodeTime += a.BuildTime()
	d.res.Duration = time.Since(start)
	d.res.record(cfg.Metrics)
	return d.res, nil
}

type detector struct {
	ctx      context.Context
	cfg      Config
	key      string // fault-injection identity
	g        *acfg.Graph
	al       *alias.Analysis
	ta       *taint.Analysis
	a        *aeg.AEG
	flow     *flowGraph
	res      *Result
	cfgReach func(from, to int) bool
	// Per-node memos, indexed by node ID and allocated on first use: the
	// candidate loops consult them per candidate, so a slice probe stands
	// in for a map lookup. A nil entry is not computed yet.
	flows      []reachInfo       // detector-local view of flow.memo (no mutex)
	dists      []*nearSets       // bounded-distance bitsets, per source
	fenceOK    []dataflow.BitSet // fence-free reachability, per source
	lfences    int8              // 0 unknown, 1 the graph has an lfence, -1 none
	condFeed   [][]int           // condFeeders, per branch; nil before the sweep
	queue      [2][]int32        // bfsDist/fenceReach frontier scratch
	feedsCache map[int][]indexEdge
	allLoads   []*acfg.Node
	pruner     Pruner
	prunedAcc  map[int]bool                   // pruneAccess memo, also dedups the counters
	ps         *presolve.Analysis             // nil when the pre-solver is disabled
	certSeen   map[*presolve.Certificate]bool // certificates already emitted
	cands      map[candKey]*candStat
	candArena  []candStat // chunked backing store for cands values
}

// candKey identifies one window/arch-rule candidate without string
// formatting (the Sprintf keys dominated the candidate loops' allocation
// profile): the pattern kind plus up to three node IDs, unused slots zero.
type candKey struct {
	kind    uint8
	a, b, c int
}

// Candidate-pattern kinds for candKey.
const (
	candUDT = uint8(iota)
	candDT
	candUCT
	candCT
	candSTL
	candPSF
	candIMP
	candSS
)

// candStat tracks one window-rule candidate's query outcomes so fully
// refuted candidates can be counted as discharged at the end of the run.
type candStat struct {
	queries int
	refuted int
}

// pruneAccess counts a universal access candidate once and asks the Prune
// hook whether its address is provably confined to its base object — in
// which case it cannot leak attacker-chosen memory and every universal
// pattern built on it is skipped before taint filtering or solver work.
func (d *detector) pruneAccess(accID int) bool {
	if d.prunedAcc == nil {
		d.prunedAcc = map[int]bool{}
	}
	if v, ok := d.prunedAcc[accID]; ok {
		return v
	}
	d.res.Candidates++
	n := d.g.Nodes[accID]
	v := d.pruner != nil && n.Instr != nil && d.pruner.InBoundsAccess(n.Instr)
	if v {
		d.res.Pruned++
		d.dischargeCert(func() (*presolve.Certificate, bool) { return d.ps.CertInBounds(n) })
	}
	d.prunedAcc[accID] = v
	return v
}

// dischargeCert records a range-rule discharge: the trusted pruner already
// retired the candidate; the pre-solver re-derives the interval facts into
// a certificate. Under audit, a certificate that cannot be reconstructed
// or whose arithmetic fails Check is a disagreement.
func (d *detector) dischargeCert(derive func() (*presolve.Certificate, bool)) {
	if d.ps == nil {
		return
	}
	d.res.Discharged++
	cert, ok := derive()
	if !ok {
		if d.cfg.AuditPresolve {
			d.res.PresolveAudited++
			d.res.PresolveDisagreements++
		}
		return
	}
	d.addCert(cert)
	if d.cfg.AuditPresolve {
		d.res.PresolveAudited++
		if err := cert.Check(); err != nil {
			d.res.PresolveDisagreements++
			cert.Disagreement = true
		}
	}
}

// addCert retains a certificate on the result, deduplicated by key, in
// candidate-enumeration order.
// addCert appends c unless already emitted. Dedup is by pointer: the
// pre-solver memoizes certificates per key, so two candidates reaching
// the same query share one *Certificate — hashing the pointer avoids
// re-hashing the key string per probe.
func (d *detector) addCert(c *presolve.Certificate) {
	if d.certSeen == nil {
		d.certSeen = map[*presolve.Certificate]bool{}
	}
	if d.certSeen[c] {
		return
	}
	d.certSeen[c] = true
	d.res.Certificates = append(d.res.Certificates, c)
}

// candStatFor returns (allocating on first use) a window candidate's
// stat. Stats come out of a chunked arena: one tiny heap object per
// candidate is visible in the allocation profile at donna's scale.
func (d *detector) candStatFor(key candKey) *candStat {
	if d.cands == nil {
		d.cands = map[candKey]*candStat{}
	}
	cs, ok := d.cands[key]
	if !ok {
		if len(d.candArena) == cap(d.candArena) {
			d.candArena = make([]candStat, 0, 1024)
		}
		d.candArena = d.candArena[:len(d.candArena)+1]
		cs = &d.candArena[len(d.candArena)-1]
		d.cands[key] = cs
	}
	return cs
}

// reachRows is DAG reachability as bitsets: row n holds n itself and
// every node reachable from it.
type reachRows []dataflow.BitSet

// cfgReachability precomputes the reachability rows in reverse
// topological order.
func cfgReachability(g *acfg.Graph) reachRows {
	n := g.Len()
	rows := make(reachRows, n)
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		row := dataflow.NewBitSet(n)
		row.Set(id)
		for _, s := range g.Succs(id) {
			row.UnionInto(rows[s])
		}
		rows[id] = row
	}
	return rows
}

// reaches reports whether a non-empty CFG path leads from one node to
// another.
func (r reachRows) reaches(from, to int) bool {
	return from != to && r[from].Has(to)
}

// flowFrom returns the value-flow reach info of one source node. The
// authoritative memo lives on the shared flowGraph — warm across both
// engines of a cached frontend, which may run concurrently — and the
// detector keeps a mutex-free local view for the hot serial loops.
func (d *detector) flowFrom(n int) reachInfo {
	if d.flows == nil {
		d.flows = make([]reachInfo, d.g.Len())
	}
	r := d.flows[n]
	if r.reached == nil {
		r = d.flow.from(n)
		d.flows[n] = r
	}
	return r
}

func (d *detector) wantClass(c core.Class) bool {
	if len(d.cfg.Transmitters) == 0 {
		return c == core.DT || c == core.CT || c == core.UDT || c == core.UCT
	}
	for _, w := range d.cfg.Transmitters {
		if w == c {
			return true
		}
	}
	return false
}

func (d *detector) outOfBudget() bool {
	if d.res.Fault != nil {
		return true
	}
	select {
	case <-d.ctx.Done():
		d.res.TimedOut = true
		d.res.Fault = faults.FromContext(d.ctx.Err())
		return true
	default:
	}
	if d.cfg.MaxQueries > 0 && d.res.Queries >= d.cfg.MaxQueries {
		d.res.BudgetHit = true
		d.res.Fault = faults.Budgetf("%s: %d queries", d.res.Fn, d.res.Queries)
		return true
	}
	return false
}

func (d *detector) memoryNodes() []*acfg.Node {
	var out []*acfg.Node
	for _, n := range d.g.Nodes {
		if n.IsLoad() || n.IsStore() || n.Kind == acfg.NHavoc {
			out = append(out, n)
		}
	}
	return out
}

func (d *detector) loads() []*acfg.Node {
	var out []*acfg.Node
	for _, n := range d.g.Nodes {
		if n.IsLoad() {
			out = append(out, n)
		}
	}
	return out
}

// query runs one solver call. In triage mode (TriageOnly) it answers
// true without search: the candidate already passed every structural,
// range, and taint filter, so admitting it is the sound over-approximate
// answer of the weakest ladder rung.
func (d *detector) query(assumptions ...*smt.Expr) bool {
	if d.outOfBudget() {
		return false
	}
	if err := d.fireProbe(faultinject.ProbeSolverStep); err != nil {
		d.res.Fault = err
		if errors.Is(err, faults.ErrDeadline) {
			d.res.TimedOut = true
		}
		return false
	}
	d.res.Queries++
	if d.cfg.TriageOnly {
		return true
	}
	t0 := time.Now()
	st, hit := d.a.CheckMemo(d.ctx, assumptions...)
	d.res.SolveTime += time.Since(t0)
	if hit {
		d.res.MemoHits++
	}
	if st == sat.Unknown {
		// The query aborted mid-search: classify why before giving up.
		// An Unknown is never a verdict — in particular not UNSAT.
		cause := d.a.AbortCause()
		switch {
		case cause != nil && errors.Is(cause, faults.ErrBudget):
			d.res.BudgetHit = true
			d.res.Fault = cause
		case cause != nil:
			d.res.TimedOut = true
			d.res.Fault = cause
		default:
			d.res.TimedOut = true
			d.res.Fault = faults.Deadlinef("%s: query aborted", d.res.Fn)
		}
		return false
	}
	return st == sat.Sat
}

// winExprs builds the solver assumptions a window query's static shadow
// describes: Misspec plus TransUnder/ExecUnder in query order. Built
// lazily — Misspec/TransUnder/ExecUnder encode branch windows into the
// solver on first use, and a refuted query must not pay (or perturb) that
// encoding. Deriving the assumptions from q instead of taking a closure
// keeps the candidate loops from allocating a capture per probe.
func (d *detector) winExprs(q presolve.Query) []*smt.Expr {
	out := make([]*smt.Expr, 0, 1+len(q.Trans)+len(q.Exec))
	out = append(out, d.a.Misspec(q.Branch))
	for _, t := range q.Trans {
		out = append(out, d.a.TransUnder(q.Branch, t))
	}
	for _, e := range q.Exec {
		out = append(out, d.a.ExecUnder(q.Branch, e))
	}
	return out
}

// queryWin is query for the window engines: the static pre-solver gets a
// shot at refuting the query before any solver work. candKey identifies
// the candidate for discharge accounting; q is the query's static shadow
// and, via winExprs, the recipe for the solver assumptions.
func (d *detector) queryWin(key candKey, q presolve.Query) bool {
	if d.ps == nil {
		return d.query(d.winExprs(q)...)
	}
	cs := d.candStatFor(key)
	cs.queries++
	cert, refuted, witnessed := d.ps.Decide(q)
	if refuted {
		cs.refuted++
		d.addCert(cert)
		if !d.cfg.AuditPresolve {
			// Skipped queries consume no solver budget: the refutation is
			// a proof, not a search.
			d.res.SkippedQueries++
			return false
		}
		// Audit replay: run the solver anyway and return its verdict, so
		// the audited run's findings match the no-presolve run exactly. A
		// Sat verdict contradicts the refutation. Aborted queries (budget,
		// fault, timeout) are not evidence either way and not counted.
		got := d.query(d.winExprs(q)...)
		if d.res.Fault == nil {
			d.res.PresolveAudited++
			if got {
				d.res.PresolveDisagreements++
				cert.Disagreement = true
			}
		}
		return got
	}
	// The dual rule: an explicit model makes the query SAT without search.
	if wcert := cert; witnessed {
		cs.refuted++
		d.addCert(wcert)
		if !d.cfg.AuditPresolve {
			d.res.SkippedQueries++
			return true
		}
		got := d.query(d.winExprs(q)...)
		if d.res.Fault == nil {
			d.res.PresolveAudited++
			if !got {
				d.res.PresolveDisagreements++
				wcert.Disagreement = true
			}
		}
		return got
	}
	return d.query(d.winExprs(q)...)
}

// queryArch is query for branch-free architectural queries (the STL
// engine's shape): the pre-solver tries to witness the whole query SAT by
// explicit path construction before the solver is consulted.
func (d *detector) queryArch(key candKey, nodes []int, mk func() []*smt.Expr) bool {
	if d.ps == nil {
		return d.query(mk()...)
	}
	cs := d.candStatFor(key)
	cs.queries++
	cert, ok := d.ps.WitnessArch(nodes)
	if !ok {
		return d.query(mk()...)
	}
	cs.refuted++
	d.addCert(cert)
	if !d.cfg.AuditPresolve {
		d.res.SkippedQueries++
		return true
	}
	got := d.query(mk()...)
	if d.res.Fault == nil {
		d.res.PresolveAudited++
		if !got {
			d.res.PresolveDisagreements++
			cert.Disagreement = true
		}
	}
	return got
}

// fireProbe consults the solver-step injection probe (panics from it are
// the supervisor's responsibility to recover).
func (d *detector) fireProbe(probe string) error {
	return faultinject.Error(probe, d.key)
}

func (d *detector) run() {
	switch d.cfg.Engine {
	case PHT:
		d.runPHT()
	case STL, PSF:
		d.runBypass()
	case IMP:
		d.runIMP()
	case SS:
		d.runSS()
	}
	// A window candidate whose every issued query was statically refuted
	// needed no solver work at all: count it discharged. (Map iteration
	// order is irrelevant to a sum.)
	for _, cs := range d.cands {
		if cs.queries > 0 && cs.queries == cs.refuted {
			d.res.Discharged++
		}
	}
	sort.Slice(d.res.Findings, func(i, j int) bool {
		a, b := d.res.Findings[i], d.res.Findings[j]
		if a.Class.Rank() != b.Class.Rank() {
			return a.Class.Rank() > b.Class.Rank()
		}
		return a.Transmit < b.Transmit
	})
}

// steering precomputes, per access load, the memory nodes whose address it
// steers (the addr edges of Table 1). The reverse direction — the index
// loads steering an access's address — is computed lazily by feedsOf.
type steering struct {
	// steers[acc] = transmitters whose address acc's value reaches
	steers map[int][]int
}

// accs returns the steered access IDs in ascending order: candidate
// enumeration (and therefore finding order, and which candidate a budget
// cut lands on) must not depend on map iteration order.
func (s steering) accs() []int {
	out := make([]int, 0, len(s.steers))
	for a := range s.steers {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

type indexEdge struct {
	idx int
	gep bool
}

// feedsOf returns the index loads steering node acc's address (with the
// addr_gep flag), cached per access.
func (d *detector) feedsOf(accID int) []indexEdge {
	if d.feedsCache == nil {
		d.feedsCache = map[int][]indexEdge{}
	}
	if es, ok := d.feedsCache[accID]; ok {
		return es
	}
	acc := d.g.Nodes[accID]
	var out []indexEdge
	for _, idx := range d.allLoads {
		if idx.ID == accID {
			continue
		}
		r := d.flowFrom(idx.ID)
		if ok, gep := flowsToAddr(r, acc); ok {
			out = append(out, indexEdge{idx: idx.ID, gep: gep})
		}
	}
	d.feedsCache[accID] = out
	return out
}

func (d *detector) computeSteering(loads []*acfg.Node, mems []*acfg.Node) steering {
	s := steering{steers: map[int][]int{}}
	// Inverted sweep: instead of probing every memory node's address defs
	// against each source's reach set (|loads| × |mems| probes), index
	// defs → mems once and walk each source's reached ∩ defs words. The
	// per-source hit list is re-sorted into mems order so downstream
	// iteration (and therefore findings and budget boundaries) is
	// unchanged.
	mask := dataflow.NewBitSet(d.g.Len())
	byDef := make([][]int32, d.g.Len())
	for pos, t := range mems {
		for _, def := range addrDefs(t) {
			mask.Set(def)
			byDef[def] = append(byDef[def], int32(pos))
		}
	}
	hit := make([]bool, len(mems))
	var hits []int32
	for _, acc := range loads {
		// flowFrom is the expensive step of this precomputation; honor the
		// budget between accesses so a timeout binds before the first query.
		if d.outOfBudget() {
			return s
		}
		r := d.flowFrom(acc.ID)
		hits = hits[:0]
		for w, word := range r.reached {
			word &= mask[w]
			for word != 0 {
				def := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for _, pos := range byDef[def] {
					if !hit[pos] {
						hit[pos] = true
						hits = append(hits, pos)
					}
				}
			}
		}
		slices.Sort(hits)
		for _, pos := range hits {
			hit[pos] = false
			if t := mems[pos]; t.ID != acc.ID {
				s.steers[acc.ID] = append(s.steers[acc.ID], t.ID)
			}
		}
	}
	return s
}

// runPHT searches for transmitters steered through control-flow
// mis-speculation: the rf-NI violation shape where a branch window makes
// the transmitter execute transiently, leaking its data-dependent address
// into xstate an observer probes.
func (d *detector) runPHT() {
	mems := d.memoryNodes()
	loads := d.loads()
	d.allLoads = loads
	st := d.computeSteering(loads, mems)
	seen := map[candKey]bool{}
	branches := d.a.Branches()
	sort.Ints(branches)
	// Query slices share these scratch arrays across the candidate loops:
	// the pre-solver copies anything it retains, so a fresh slice literal
	// per probe is pure allocation churn.
	var qt, qe [2]int

	// Universal data transmitters.
	if d.wantClass(core.UDT) {
		for _, accID := range st.accs() {
			ts := st.steers[accID]
			if d.outOfBudget() {
				return
			}
			if d.pruneAccess(accID) {
				continue
			}
			if d.cfg.RequireTaint && !d.ta.AddressControlled(d.g.Nodes[accID]) {
				continue
			}
			for _, e := range d.feedsOf(accID) {
				if d.cfg.RequireGEP && !e.gep {
					continue
				}
				for _, tID := range ts {
					key := candKey{kind: candUDT, a: tID, b: accID}
					if seen[key] {
						continue
					}
					for _, b := range branches {
						if !d.a.InWindow(b, tID) || !d.a.InWindow(b, accID) {
							continue
						}
						qt[0], qt[1], qe[0] = tID, accID, e.idx
						q := presolve.Query{Branch: b, Trans: qt[:2], Exec: qe[:1]}
						if d.queryWin(key, q) {
							seen[key] = true
							d.res.Findings = append(d.res.Findings, Finding{
								Fn: d.res.Fn, Class: core.UDT,
								Transmit: tID, Access: accID, Index: e.idx,
								Branch: b, Store: -1, Load: -1,
								TransientTransmit: true, TransientAccess: true,
								Line: line(d.g.Nodes[tID]),
							})
							break
						}
					}
				}
			}
		}
	}

	// Data transmitters (non-universal or committed-access patterns).
	if d.wantClass(core.DT) {
		for _, accID := range st.accs() {
			ts := st.steers[accID]
			if d.outOfBudget() {
				return
			}
			for _, tID := range ts {
				if seen[candKey{kind: candUDT, a: tID, b: accID}] {
					continue // already reported at higher severity
				}
				key := candKey{kind: candDT, a: tID, b: accID}
				if seen[key] {
					continue
				}
				for _, b := range branches {
					if !d.a.InWindow(b, tID) {
						continue
					}
					qt[0], qe[0] = tID, accID
					q := presolve.Query{Branch: b, Trans: qt[:1], Exec: qe[:1]}
					if d.queryWin(key, q) {
						seen[key] = true
						d.res.Findings = append(d.res.Findings, Finding{
							Fn: d.res.Fn, Class: core.DT,
							Transmit: tID, Access: accID, Index: -1,
							Branch: b, Store: -1, Load: -1,
							TransientTransmit: true,
							TransientAccess:   d.a.InWindow(b, accID),
							Line:              line(d.g.Nodes[tID]),
						})
						break
					}
				}
			}
		}
	}

	// Control patterns: the branch condition reads an access load; any
	// memory node transient under the branch transmits its outcome.
	if d.wantClass(core.CT) || d.wantClass(core.UCT) {
		d.controlPatterns(st, mems, loads, branches, seen)
	}
}

// condFeeders returns the loads whose values feed branch c's condition,
// in loads order. The first call answers every branch at once with one
// inverted sweep, the trick computeSteering plays for addresses: each
// load's reach set is ANDed once with the mask of all branches' condition
// defs, so the loads are walked once in total rather than once per
// branch (the UCT pattern asks about every inner branch).
func (d *detector) condFeeders(c int, loads []*acfg.Node) []int {
	if d.condFeed == nil {
		d.condFeed = d.sweepCondFeeders(loads)
	}
	return d.condFeed[c]
}

// sweepCondFeeders computes condFeeders for every branch of the S-AEG.
func (d *detector) sweepCondFeeders(loads []*acfg.Node) [][]int {
	n := d.g.Len()
	out := make([][]int, n)
	mask := dataflow.NewBitSet(n)
	byDef := make([][]int32, n)
	for _, b := range d.a.Branches() {
		if cn := d.g.Nodes[b]; len(cn.ArgDefs) > 0 {
			for _, def := range cn.ArgDefs[0] {
				mask.Set(def)
				byDef[def] = append(byDef[def], int32(b))
			}
		}
	}
	// last[b] is 1 + the position of the load last appended to b's list,
	// so a load reaching several of b's defs is listed once.
	last := make([]int32, n)
	for pos, acc := range loads {
		r := d.flowFrom(acc.ID)
		for w, word := range r.reached {
			word &= mask[w]
			for word != 0 {
				def := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for _, b := range byDef[def] {
					if last[b] != int32(pos+1) {
						last[b] = int32(pos + 1)
						out[b] = append(out[b], acc.ID)
					}
				}
			}
		}
	}
	return out
}

func (d *detector) controlPatterns(st steering, mems, loads []*acfg.Node, branches []int, seen map[candKey]bool) {
	// Query slices share these scratch arrays (see runPHT): the
	// pre-solver copies anything it retains.
	var qt [3]int
	var qe [1]int
	// Universal control transmitters require the nested shape: an outer
	// branch b opens the window; inside it, a transient access (whose
	// address the index steers via addr_gep) feeds an inner branch c; any
	// memory node transient under b whose execution c controls transmits
	// the secret-dependent outcome (Table 1, §6.2.1).
	if d.wantClass(core.UCT) {
		for _, b := range branches {
			if d.outOfBudget() {
				return
			}
			for _, c := range branches {
				if c == b || !d.a.InWindow(b, c) {
					continue
				}
				for _, accID := range d.condFeeders(c, loads) {
					if !d.a.InWindow(b, accID) {
						continue
					}
					if d.pruneAccess(accID) {
						continue
					}
					if d.cfg.RequireTaint && !d.ta.AddressControlled(d.g.Nodes[accID]) {
						continue
					}
					for _, e := range d.feedsOf(accID) {
						if d.cfg.RequireGEP && !e.gep {
							continue
						}
						for _, t := range mems {
							if !d.a.InWindow(b, t.ID) || !d.cfgReach(c, t.ID) {
								continue
							}
							key := candKey{kind: candUCT, a: t.ID, b: accID}
							if seen[key] {
								continue
							}
							qt[0], qt[1], qt[2], qe[0] = t.ID, accID, c, e.idx
							q := presolve.Query{Branch: b, Trans: qt[:3], Exec: qe[:1]}
							if d.queryWin(key, q) {
								seen[key] = true
								d.res.Findings = append(d.res.Findings, Finding{
									Fn: d.res.Fn, Class: core.UCT,
									Transmit: t.ID, Access: accID, Index: e.idx,
									Branch: b, Store: -1, Load: -1,
									TransientTransmit: true, TransientAccess: true,
									Line: line(t),
								})
							}
						}
					}
				}
			}
		}
	}
	if !d.wantClass(core.CT) {
		return
	}
	for _, b := range branches {
		if d.outOfBudget() {
			return
		}
		accs := d.condFeeders(b, loads)
		if len(accs) == 0 {
			continue
		}
		for _, t := range mems {
			if !d.a.InWindow(b, t.ID) {
				continue
			}
			for _, accID := range accs {
				if seen[candKey{kind: candUCT, a: t.ID, b: accID}] {
					continue
				}
				key := candKey{kind: candCT, a: t.ID, b: accID}
				if seen[key] {
					continue
				}
				qt[0], qe[0] = t.ID, accID
				q := presolve.Query{Branch: b, Trans: qt[:1], Exec: qe[:1]}
				if d.queryWin(key, q) {
					seen[key] = true
					d.res.Findings = append(d.res.Findings, Finding{
						Fn: d.res.Fn, Class: core.CT,
						Transmit: t.ID, Access: accID, Index: -1,
						Branch: b, Store: -1, Load: -1,
						TransientTransmit: true,
						Line:              line(t),
					})
				}
			}
		}
	}
}

// bypassPair is one (store, load) candidate of the store-buffer engines.
type bypassPair struct{ s, l int }

// bypassPairs enumerates the (store, load) candidates of the STL and PSF
// engines in (store, load) ID order, charging Candidates and Pruned. It
// walks only the set bits of each store's LSQ window — the nodes within
// Opts.LSQ hops, so s reaches every one of them — which come out in the
// order a stores × loads scan visits them. Per engine:
//
//   - STL keeps may-aliasing pairs and prunes provably disjoint ones;
//   - PSF drops exact same-address forwards (architecturally correct)
//     and prunes nothing: misprediction is what makes disjoint pairs
//     dangerous.
//
// ok is false when the budget ran out mid-walk.
func (d *detector) bypassPairs() (pairs []bypassPair, ok bool) {
	for _, s := range d.g.Nodes {
		if !s.IsStore() {
			continue
		}
		if d.outOfBudget() {
			return pairs, false
		}
		for w, word := range d.nearFrom(s.ID).lsq {
			for word != 0 {
				l := d.g.Nodes[w*64+bits.TrailingZeros64(word)]
				word &= word - 1
				if !l.IsLoad() {
					continue
				}
				if d.cfg.Engine == PSF {
					if mustAliasExact(s, l) {
						continue
					}
					d.res.Candidates++
				} else {
					if !d.al.MayAliasTransient(s, l) {
						continue
					}
					d.res.Candidates++
					if d.pruner != nil && s.Instr != nil && l.Instr != nil &&
						d.pruner.DisjointPair(s.Instr, l.Instr) {
						d.res.Pruned++
						d.dischargeCert(func() (*presolve.Certificate, bool) { return d.ps.CertDisjoint(s, l) })
						continue
					}
				}
				pairs = append(pairs, bypassPair{s.ID, l.ID})
			}
		}
	}
	return pairs, true
}

// runBypass searches for transmitters steered through the store buffer:
//
//   - Clou-stl (§5.3): a load l bypasses a may-aliasing po-earlier store
//     s within the LSQ bound, returning stale attacker-controlled data;
//   - Clou-psf: l is wrongly forwarded the data of an in-flight store s
//     that need not alias it (the alias predictor mispredicts).
//
// Either way l's value steers a later transmitter t inside l's window,
// unless an lfence on every s→t path drains the buffer first.
func (d *detector) runBypass() {
	pairs, ok := d.bypassPairs()
	if !ok {
		return
	}

	// One inverted value-flow sweep per distinct load replaces the
	// per-pair probe over every memory node: the steered lists come back
	// in mems order, so per-pair iteration (and every downstream decision)
	// is unchanged. flowsToAddr was the most selective filter in this
	// loop; the surviving checks run only on its few hits.
	var srcs []*acfg.Node
	listed := dataflow.NewBitSet(d.g.Len())
	for _, p := range pairs {
		if !listed.Has(p.l) {
			listed.Set(p.l)
			srcs = append(srcs, d.g.Nodes[p.l])
		}
	}
	st := d.computeSteering(srcs, d.memoryNodes())

	kind := candSTL
	if d.cfg.Engine == PSF {
		kind = candPSF
	}
	// Scratch for queryArch's node sets: the pre-solver copies anything it
	// retains, so a fresh slice literal per probe is pure churn. Each
	// (s, l, t) key comes up once — pairs are distinct and steered lists
	// duplicate-free — so no seen-set is needed.
	var qn [3]int
	for _, p := range pairs {
		if d.outOfBudget() {
			return
		}
		near := d.nearFrom(p.l)
		for _, tID := range st.steers[p.l] {
			if !d.cfgReach(p.l, tID) || !near.win.Has(tID) || d.fenceBetween(p.s, tID) {
				continue
			}
			class := core.UDT
			if d.cfg.RequireTaint && !d.bypassControlled(p) {
				class = core.DT
			}
			if !d.wantClass(class) {
				continue
			}
			qn[0], qn[1], qn[2] = p.s, p.l, tID
			if d.queryArch(candKey{kind: kind, a: p.s, b: p.l, c: tID}, qn[:3], func() []*smt.Expr {
				return []*smt.Expr{d.a.Arch(p.s), d.a.Arch(p.l), d.a.Exec(tID)}
			}) {
				d.res.Findings = append(d.res.Findings, Finding{
					Fn: d.res.Fn, Class: class,
					Transmit: tID, Access: p.l, Index: -1,
					Branch: -1, Store: p.s, Load: p.l,
					TransientTransmit: true, TransientAccess: true,
					Line: line(d.g.Nodes[tID]),
				})
			}
		}
	}
}

// bypassControlled reports whether the value the load returns may be
// attacker-controlled: the stale memory value under STL, the forwarded
// store data under PSF.
func (d *detector) bypassControlled(p bypassPair) bool {
	if d.cfg.Engine == PSF {
		return forwardControlled(d.g.Nodes[p.s])
	}
	return staleControlled(d.g.Nodes[p.l])
}

// staleControlled reports whether the stale value a bypassing load returns
// may be attacker-controlled: non-pointer memory is attacker-controlled
// initially, and stale pointers may also carry attacker values (§5.3).
func staleControlled(l *acfg.Node) bool {
	return ir.IsInt(l.Instr.Ty) || ir.IsPtr(l.Instr.Ty)
}

// nearSets are one source's bounded-distance verdicts: the engines never
// ask for an exact BFS distance, only whether a node lies within the LSQ
// bound (store→load bypass range) or the Wsize bound (load→transmitter
// window), so two bitsets replace the full distance map — slice-speed
// lookups in the pair loops at a fraction of the memory.
type nearSets struct {
	lsq dataflow.BitSet // nodes within Opts.LSQ hops of the source
	win dataflow.BitSet // nodes within Opts.Wsize hops of the source
}

// bfsDist computes one source's nearSets by a level-synchronous BFS out
// to the larger bound. The larger bound's set doubles as the visit mark
// (every node the search reaches belongs to it), and a node first reached
// at a level within the smaller bound joins the smaller set too. Farther
// nodes stay unset, which callers treat like unreachable ones.
func (d *detector) bfsDist(from int) *nearSets {
	lsqB, winB := d.a.Opts.LSQ, d.a.Opts.Wsize
	ns := &nearSets{lsq: dataflow.NewBitSet(d.g.Len()), win: dataflow.NewBitSet(d.g.Len())}
	seen, inner, innerB := ns.win, ns.lsq, lsqB
	if lsqB > winB {
		seen, inner, innerB = ns.lsq, ns.win, winB
	}
	seen.Set(from)
	inner.Set(from)
	cur, next := append(d.queue[0][:0], int32(from)), d.queue[1][:0]
	for level := 1; level <= max(lsqB, winB) && len(cur) > 0; level++ {
		next = next[:0]
		for _, n := range cur {
			for _, s := range d.g.Succs(int(n)) {
				if seen.Has(s) {
					continue
				}
				seen.Set(s)
				if level <= innerB {
					inner.Set(s)
				}
				next = append(next, int32(s))
			}
		}
		cur, next = next, cur
	}
	d.queue[0], d.queue[1] = cur, next
	return ns
}

// nearFrom returns (building on first use) the source's bounded-distance
// sets.
func (d *detector) nearFrom(from int) *nearSets {
	if d.dists == nil {
		d.dists = make([]*nearSets, d.g.Len())
	}
	ns := d.dists[from]
	if ns == nil {
		ns = d.bfsDist(from)
		d.dists[from] = ns
	}
	return ns
}

// isLfence reports whether n is a speculation barrier (an lfence).
func isLfence(n *acfg.Node) bool { return n.IsFence() && n.Instr.Sub == "lfence" }

// fenceReach computes the fence-free reachability set from one source:
// the nodes some path from a reaches without entering an lfence.
func (d *detector) fenceReach(a int) dataflow.BitSet {
	reach := dataflow.NewBitSet(d.g.Len())
	reach.Set(a)
	queue := append(d.queue[0][:0], int32(a))
	for head := 0; head < len(queue); head++ {
		for _, s := range d.g.Succs(int(queue[head])) {
			if reach.Has(s) {
				continue
			}
			if isLfence(d.g.Nodes[s]) {
				continue
			}
			reach.Set(s)
			queue = append(queue, int32(s))
		}
	}
	d.queue[0] = queue
	return reach
}

// fenceBetween reports whether every path from a to b crosses an lfence.
// In a graph without lfences that is plain unreachability, which the
// shared closure answers in O(1) — the common case, the whole crypto
// corpus among it. Otherwise fence-free reachability sets are cached per
// source.
func (d *detector) fenceBetween(a, b int) bool {
	if d.lfences == 0 {
		d.lfences = -1
		if slices.ContainsFunc(d.g.Nodes, isLfence) {
			d.lfences = 1
		}
	}
	if d.lfences < 0 {
		return a != b && !d.cfgReach(a, b)
	}
	if d.fenceOK == nil {
		d.fenceOK = make([]dataflow.BitSet, d.g.Len())
	}
	reach := d.fenceOK[a]
	if reach == nil {
		reach = d.fenceReach(a)
		d.fenceOK[a] = reach
	}
	return !reach.Has(b)
}

func line(n *acfg.Node) int {
	if n.Instr != nil {
		return n.Instr.Line
	}
	return 0
}

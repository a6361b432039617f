// Package aeg builds the Symbolic Abstract Event Graph of §5.2: the A-CFG's
// nodes annotated with boolean variables that encode, per candidate
// execution, whether each node executes architecturally (po) or transiently
// (tfo), which way each branch resolves, and which branches mis-speculate.
// Edge-presence formulas (Fig. 7) become constraints over these variables:
// po implies tfo, a mis-speculation window extends down the wrong arm of an
// architecturally-executed branch for at most the speculation bound, and a
// transient node's operands must themselves be fetched.
//
// An AEG has two halves, each built on first use, so a function whose
// queries the pre-solver decides statically never pays for the solver:
//
//   - the dense windows (windows.go): per branch, the nodes fetchable down
//     each arm within the speculation bound, as one bitset plus a sorted
//     member list with parallel arm and distance slices. Branches,
//     InWindow, WindowInfo and ForEachWindowNode read only this half.
//   - the solver encoding: an smt.Solver holding the architectural path
//     semantics. Any solver-facing call (Arch, Take, Exec, ExecUnder,
//     Misspec, TransUnder, Check*, Model) builds it. Each branch's window
//     constraints are asserted later still, on the first query that names
//     the branch — the directed-search structure that keeps Clou's solver
//     queries small (§5.3).
//
// An AEG is not safe for concurrent use.
package aeg

import (
	"context"
	"slices"
	"strconv"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

// Options bound the microarchitectural resources (§6: ROB/LSQ 250/50,
// window size Wsize for the sliding-window search §6.2.1).
type Options struct {
	ROB   int // reorder-buffer capacity: max speculation window length
	LSQ   int // load-store-queue capacity: max store-bypass distance
	Wsize int // sliding window for the transmitter search
	// SolverMode selects how detection queries are discharged: warm
	// incremental CDCL (default), fresh-replica-per-query reference, or
	// both with verdict self-checking (see smt.Mode).
	SolverMode smt.Mode
}

func (o *Options) defaults() {
	if o.ROB == 0 {
		o.ROB = 250
	}
	if o.LSQ == 0 {
		o.LSQ = 50
	}
	if o.Wsize == 0 {
		o.Wsize = 100
	}
}

// AEG is the symbolic abstract event graph for one function.
type AEG struct {
	G     *acfg.Graph
	Alias *alias.Analysis
	Opts  Options

	win    *windows // dense windows; nil until the first window access
	s      *smt.Solver
	budget sat.Budget // applied to s when it is built
	// arch[n] is node n's architectural-execution variable; take[b] branch
	// b's direction variable (nil for non-branch nodes). Both are nil
	// until the solver is built.
	arch []*smt.Expr
	take []*smt.Expr
	// buildTime accumulates the time spent building either half and
	// encoding branch windows.
	buildTime time.Duration
}

// Build returns the AEG of g. It does no work up front: the windows and
// the solver encoding are each built on first use.
func Build(g *acfg.Graph, al *alias.Analysis, opts Options) *AEG {
	opts.defaults()
	return &AEG{G: g, Alias: al, Opts: opts}
}

// BuildTime reports the time spent so far building the windows, the
// architectural encoding and the per-branch window encodings.
func (a *AEG) BuildTime() time.Duration { return a.buildTime }

// windows returns the dense windows, building them on first use.
func (a *AEG) windows() *windows {
	if a.win == nil {
		t0 := time.Now()
		bound := min(a.Opts.ROB, a.Opts.Wsize)
		a.win = buildWindows(a.G, bound)
		a.buildTime += time.Since(t0)
	}
	return a.win
}

// solver returns the solver, building it and asserting the architectural
// path semantics on first use.
func (a *AEG) solver() *smt.Solver {
	if a.s == nil {
		t0 := time.Now()
		a.s = smt.NewSolverMode(a.Opts.SolverMode)
		a.s.SetBudget(a.budget)
		a.encodeArch()
		a.buildTime += time.Since(t0)
	}
	return a.s
}

// SetBudget bounds the search effort of every later solver call (see
// sat.Budget); it takes effect whenever the solver is built.
func (a *AEG) SetBudget(b sat.Budget) {
	a.budget = b
	if a.s != nil {
		a.s.SetBudget(b)
	}
}

// AbortCause classifies the last Unknown verdict (see smt.Solver.AbortCause);
// nil if the solver was never built.
func (a *AEG) AbortCause() error {
	if a.s == nil {
		return nil
	}
	return a.s.AbortCause()
}

// Arch returns the architectural-execution variable of node n.
func (a *AEG) Arch(n int) *smt.Expr {
	a.solver()
	return a.arch[n]
}

// Take returns the branch-direction variable of branch node b (true =
// first successor).
func (a *AEG) Take(b int) *smt.Expr {
	a.solver()
	return a.take[b]
}

// Misspec returns branch b's mis-speculation variable, encoding its window
// constraints on first use; nil (true in an assumption list) if b opens no
// window.
func (a *AEG) Misspec(b int) *smt.Expr {
	w := a.encodeBranch(b)
	if w == nil {
		return nil
	}
	return w.misspec
}

// ExecUnder returns the formula "node n is fetched when branch b
// mis-speculates": architecturally, or transiently inside b's window.
func (a *AEG) ExecUnder(b, n int) *smt.Expr {
	return smt.Or(a.Arch(n), a.TransUnder(b, n))
}

// Exec returns the formula "node n executes architecturally" — for
// queries that do not involve a speculation window (STL paths).
func (a *AEG) Exec(n int) *smt.Expr { return a.Arch(n) }

// TransUnder returns the variable "node n is transient in branch b's
// window", or False if n is outside every window of b.
func (a *AEG) TransUnder(b, n int) *smt.Expr {
	if w := a.encodeBranch(b); w != nil {
		if i, ok := w.index(n); ok {
			return w.trans[i]
		}
	}
	return a.s.False()
}

// encodeArch asserts the architectural path semantics: the entry executes;
// a node executes iff control reaches it along resolved branch outcomes.
// Each node's definition is emitted as direct clauses over one edge
// literal per incoming edge — arch[n] → ∨ edges, and edge → arch[n] — so
// only a branch edge needs a Tseitin gate (arch[p] ∧ ±take[p]).
func (a *AEG) encodeArch() {
	g, s := a.G, a.s
	a.arch = make([]*smt.Expr, len(g.Nodes))
	a.take = make([]*smt.Expr, len(g.Nodes))
	topo := g.Topo()
	for _, id := range topo {
		a.arch[id] = s.NewVar(varName("arch!", id))
	}
	for _, n := range g.Nodes {
		if n.IsBranch() {
			a.take[n.ID] = s.NewVar(varName("take!", n.ID))
		}
	}
	s.AssertClause(a.arch[g.Entry])
	var ins []*smt.Expr
	for _, id := range topo {
		if id == g.Entry {
			continue
		}
		self := a.arch[id]
		ins = append(ins[:0], smt.Not(self))
		for _, p := range g.Preds(id) {
			edge := a.arch[p]
			if g.Nodes[p].IsBranch() {
				succ := g.Succs(p)
				switch {
				case len(succ) < 2 || (succ[0] == id && succ[1] == id):
					// degenerate branch (cut back edge): unconditional
				case succ[1] == id && succ[0] != id:
					edge = smt.And(edge, smt.Not(a.take[p]))
				default:
					edge = smt.And(edge, a.take[p])
				}
			}
			s.AssertClause(smt.Not(edge), self)
			ins = append(ins, edge)
		}
		s.AssertClause(ins...)
	}
}

// varName renders an encoding variable's name: prefix followed by id.
func varName(prefix string, id int) string { return prefix + strconv.Itoa(id) }

// encodeBranch asserts branch b's window semantics on first use and
// returns its window (nil if b opens none): misspec implies the branch
// executes architecturally; a node is transient in the window only down
// the arm the branch did not take; and a transient node's operand
// definitions must be fetched (architecturally before the branch, or
// transiently inside the same window). Variables are numbered in member
// order, so the encoding is run-to-run deterministic.
func (a *AEG) encodeBranch(b int) *window {
	s := a.solver()
	w := a.windows().of(b)
	if w == nil || w.misspec != nil {
		return w
	}
	t0 := time.Now()
	m := s.NewVar(varName("misspec!", b))
	w.misspec = m
	s.AssertClause(smt.Not(m), a.arch[b])
	w.trans = make([]*smt.Expr, len(w.members))
	prefix := varName("transin!", b) + "!"
	for i, n := range w.members {
		w.trans[i] = s.NewVar(varName(prefix, int(n)))
	}
	take, notTake := a.take[b], smt.Not(a.take[b])
	for i, v := range w.trans {
		notV := smt.Not(v)
		s.AssertClause(notV, m)
		switch w.arms[i] {
		case armFirst:
			s.AssertClause(notV, notTake)
		case armSecond:
			s.AssertClause(notV, take)
		}
	}
	// Data feasibility, within this window.
	var clause []*smt.Expr
	for i, n := range w.members {
		for _, defs := range a.G.Nodes[n].ArgDefs {
			if len(defs) == 0 {
				continue
			}
			clause = append(clause[:0], smt.Not(w.trans[i]))
			for _, d := range defs {
				clause = append(clause, a.arch[d])
				if j, ok := w.index(d); ok {
					clause = append(clause, w.trans[j])
				}
			}
			s.AssertClause(clause...)
		}
	}
	a.buildTime += time.Since(t0)
	return w
}

// Branches lists the branch nodes that can open windows, sorted.
func (a *AEG) Branches() []int { return slices.Clone(a.windows().branches) }

// WindowInfo reports whether node n lies inside some speculation window
// of branch b and, if so, down which arms it is fetchable and its minimum
// fetch distance from the branch. It is the static window interface the
// pre-solver (internal/presolve) consumes, engine-agnostically, through
// its WindowSource contract.
func (a *AEG) WindowInfo(b, n int) (arms [2]bool, dist int, ok bool) {
	w := a.windows().of(b)
	if w == nil || !w.bits.Has(n) {
		return arms, 0, false
	}
	i, _ := w.index(n)
	return w.arms[i].pair(), int(w.dist[i]), true
}

// ForEachWindowNode visits every node of branch b's speculation window
// with its arm fetchability, in ascending node order —
// presolve.WindowEnumerator's fast path over probing WindowInfo per graph
// node.
func (a *AEG) ForEachWindowNode(b int, f func(n int, arms [2]bool)) {
	w := a.windows().of(b)
	if w == nil {
		return
	}
	for i, n := range w.members {
		f(int(n), w.arms[i].pair())
	}
}

// InWindow reports whether node n is statically inside some window of b.
func (a *AEG) InWindow(b, n int) bool {
	w := a.windows().of(b)
	return w != nil && w.bits.Has(n)
}

// Check decides a query under the structural constraints.
func (a *AEG) Check(assumptions ...*smt.Expr) sat.Status {
	return a.solver().Check(assumptions...)
}

// CheckCtx is Check under a context: a cancelled ctx aborts the solver
// search promptly with sat.Unknown (the FuncTimeout path of §6.2).
func (a *AEG) CheckCtx(ctx context.Context, assumptions ...*smt.Expr) sat.Status {
	return a.solver().CheckCtx(ctx, assumptions...)
}

// CheckMemo decides a query through the solver's verdict memo: repeated
// queries over semantically equal assumption sets are answered without a
// solver call. Memo hits carry no model — witness reconstruction must use
// Check, which re-solves.
func (a *AEG) CheckMemo(ctx context.Context, assumptions ...*smt.Expr) (sat.Status, bool) {
	return a.solver().CheckMemo(ctx, assumptions...)
}

// The stats accessors below read the solver's counters; each returns
// zeros if no query ever built the solver.

// MemoStats reports the solver's query-memo hit/lookup counters.
func (a *AEG) MemoStats() (hits, lookups int64) {
	if a.s == nil {
		return 0, 0
	}
	return a.s.MemoStats()
}

// SolverStats reports the CDCL search-effort counters accumulated by this
// AEG's solver (decisions, propagations, conflicts, restarts).
func (a *AEG) SolverStats() (decisions, propagations, conflicts, restarts int64) {
	if a.s == nil {
		return 0, 0, 0, 0
	}
	return a.s.SatStats()
}

// IncrementalStats reports the warm CDCL instance's incremental-solving
// counters (prefix-reuse depth, root-unit promotions, clause-DB diet).
func (a *AEG) IncrementalStats() sat.IncStats {
	if a.s == nil {
		return sat.IncStats{}
	}
	return a.s.IncrementalStats()
}

// EncodeStats reports the Tseitin gate counters: gates requested and gates
// shared through the hash-cons table.
func (a *AEG) EncodeStats() (gates, shared int64) {
	if a.s == nil {
		return 0, 0
	}
	return a.s.EncodeStats()
}

// ModelCacheHits reports how many queries were answered Sat by extending
// the last model over newly encoded gates, skipping the solver search.
func (a *AEG) ModelCacheHits() int64 {
	if a.s == nil {
		return 0
	}
	return a.s.ModelCacheHits()
}

// SelfCheckStats reports, under Options.SolverMode == smt.ModeCheck, how
// many query verdicts were replayed on a fresh reference solver and how
// many disagreed.
func (a *AEG) SelfCheckStats() (checks, mismatches int64) {
	if a.s == nil {
		return 0, 0
	}
	return a.s.SelfCheckStats()
}

// Model reads back, after a Sat query, the architectural path (node IDs)
// and the transient nodes (from encoded windows), for witness
// construction.
func (a *AEG) Model() (archNodes, transNodes []int, takeDir map[int]bool) {
	s := a.solver()
	takeDir = map[int]bool{}
	transSeen := map[int]bool{}
	for _, n := range a.G.Topo() {
		if s.Value(a.arch[n]) {
			archNodes = append(archNodes, n)
		}
	}
	if a.win != nil {
		for _, b := range a.win.branches {
			w := a.win.of(b)
			if w.misspec == nil || !s.Value(w.misspec) {
				continue
			}
			for i, n := range w.members {
				if s.Value(w.trans[i]) && !transSeen[int(n)] {
					transSeen[int(n)] = true
					transNodes = append(transNodes, int(n))
				}
			}
		}
	}
	slices.Sort(transNodes)
	for b, v := range a.take {
		if v != nil {
			takeDir[b] = s.Value(v)
		}
	}
	return archNodes, transNodes, takeDir
}

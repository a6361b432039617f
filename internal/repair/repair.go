// Package repair implements Clou's automatic mitigation (§6.1): insert a
// minimal number of speculation fences (lfence) so that no detected
// transmitter survives. Candidate fence positions are instructions lying
// between a finding's speculation primitive and its transmitter; a minimal
// hitting set is computed with the smt package's cardinality constraints,
// applied to the IR, and validated by re-running detection — the loop
// continues until the program is clean.
package repair

import (
	"context"
	"fmt"
	"sort"

	"lcm/internal/acfg"
	"lcm/internal/dataflow"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

// Result reports a repair run.
type Result struct {
	Fences    int // fences inserted
	Rounds    int // detect→repair iterations
	Remaining int // findings left (0 on success)
}

// Repair analyzes fn with cfg, inserts fences into m until detection runs
// clean (or maxRounds is hit), and reports the fence count.
func Repair(m *ir.Module, fn string, cfg detect.Config, maxRounds int) (Result, error) {
	return RepairCtx(context.Background(), m, fn, cfg, maxRounds)
}

// RepairCtx is Repair under a context: cancellation aborts the current
// detection round promptly (each round still gets cfg.Timeout on top).
// Repair mutates m between rounds, so any analysis cache the caller set
// on cfg is dropped — cached front ends would describe the pre-fence IR.
func RepairCtx(ctx context.Context, m *ir.Module, fn string, cfg detect.Config, maxRounds int) (Result, error) {
	cfg.Cache = nil
	parent := cfg.Span
	repairSpan := parent.Start("repair:" + fn)
	defer repairSpan.End()
	if maxRounds == 0 {
		maxRounds = 8
	}
	total := 0
	for round := 1; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return Result{Fences: total, Rounds: round}, err
		}
		roundSpan := repairSpan.Start(fmt.Sprintf("round-%d", round))
		cfg.Span = roundSpan
		res, err := detect.AnalyzeFuncCtx(ctx, m, fn, cfg)
		if err != nil {
			roundSpan.End()
			return Result{Fences: total, Rounds: round}, err
		}
		if len(res.Findings) == 0 {
			roundSpan.End()
			cfg.Metrics.Counter("repair.rounds").Add(int64(round))
			return Result{Fences: total, Rounds: round}, nil
		}
		points, err := minimalFences(res)
		if err != nil {
			roundSpan.End()
			return Result{Fences: total, Rounds: round, Remaining: len(res.Findings)}, err
		}
		if len(points) == 0 {
			roundSpan.End()
			return Result{Fences: total, Rounds: round, Remaining: len(res.Findings)},
				fmt.Errorf("repair: no fence position can cut remaining leakage")
		}
		for _, p := range points {
			insertFenceBefore(m, p)
			total++
		}
		cfg.Metrics.Counter("repair.fences").Add(int64(len(points)))
		roundSpan.End()
	}
	cfg.Span = repairSpan
	res, err := detect.AnalyzeFuncCtx(ctx, m, fn, cfg)
	if err != nil {
		return Result{Fences: total, Rounds: maxRounds}, err
	}
	return Result{Fences: total, Rounds: maxRounds, Remaining: len(res.Findings)}, nil
}

// minimalFences computes a minimum set of instructions before which an
// lfence cuts every finding.
func minimalFences(res *detect.Result) ([]*ir.Instr, error) {
	g := res.Graph
	w := newWalker(g)

	// For each finding, the primitive node and transmitter node.
	type span struct{ from, to int }
	var spans []span
	for _, f := range res.Findings {
		if f.Store >= 0 && f.Transmit == f.Store {
			// Silent-store finding (Clou-ss): the store itself transmits
			// when it commits, so there is no downstream transmitter to
			// fence off. The cut is a serializing drain between the store
			// and every reachable return — the fence forces a verbatim
			// commit before the elision compare could fire.
			fwd := w.reach(f.Store, g.Succs)
			for _, n := range g.Nodes {
				if n.Instr != nil && n.Instr.Op == ir.OpRet && fwd.Has(n.ID) {
					spans = append(spans, span{f.Store, n.ID})
				}
			}
			continue
		}
		from := f.Branch
		if from < 0 {
			from = f.Store
		}
		if from < 0 {
			// Clou-imp findings carry neither branch nor store: the
			// window opens at the first trained index load.
			from = f.Load
		}
		if from < 0 {
			continue
		}
		spans = append(spans, span{from, f.Transmit})
	}
	if len(spans) == 0 {
		return nil, nil
	}

	// onPath[i] holds the nodes lying on some primitive→transmit path of
	// spans[i]: reachable from the primitive and reaching the transmitter.
	onPath := make([]dataflow.BitSet, len(spans))
	for i, sp := range spans {
		fwd, bwd := w.reach(sp.from, g.Succs), w.reach(sp.to, g.Preds)
		for k := range fwd {
			fwd[k] &= bwd[k]
		}
		onPath[i] = fwd
	}

	// Candidate cut instructions: instructions of nodes lying on some
	// primitive→transmit path (transmitter included — a fence immediately
	// before it always works; primitive excluded).
	nodesOf := map[*ir.Instr][]int{}
	for i, sp := range spans {
		for _, n := range g.Nodes {
			if n.Instr == nil || n.Kind == acfg.NEntry || n.Kind == acfg.NExit || n.ID == sp.from {
				continue
			}
			if (n.ID == sp.to || onPath[i].Has(n.ID)) && placeable(n.Instr) {
				nodesOf[n.Instr] = nil
			}
		}
	}
	// Order candidates by rendering, then by first node, so the hitting
	// set (and the model the solver picks) is deterministic.
	cands := make([]*ir.Instr, 0, len(nodesOf))
	for _, n := range g.Nodes {
		if ns, ok := nodesOf[n.Instr]; ok {
			if len(ns) == 0 {
				cands = append(cands, n.Instr)
			}
			nodesOf[n.Instr] = append(ns, n.ID)
		}
	}
	keys := make(map[*ir.Instr]string, len(cands))
	for _, in := range cands {
		keys[in] = in.String()
	}
	sort.SliceStable(cands, func(i, j int) bool { return keys[cands[i]] < keys[cands[j]] })

	// kills[i]: the candidates j such that fencing before cands[j] cuts
	// spans[i] — every primitive→transmit path crosses a node carrying
	// that instruction. Only such nodes lying on a path of the span can
	// block one; with none there, the fence cuts the span only when no
	// path exists at all.
	cuts := func(sp span, path dataflow.BitSet, in *ir.Instr) bool {
		if sp.from == sp.to {
			return false
		}
		for _, n := range nodesOf[in] {
			if path.Has(n) {
				return w.cutsAllPaths(sp.from, sp.to, in)
			}
		}
		return !path.Has(sp.from)
	}
	kills := make([][]int, len(spans))
	for i, sp := range spans {
		for j, in := range cands {
			if cuts(sp, onPath[i], in) {
				kills[i] = append(kills[i], j)
			}
		}
		if len(kills[i]) == 0 {
			return nil, fmt.Errorf("repair: finding %d has no cutting position", i)
		}
	}

	// Minimize the fence count: find the smallest k with a model.
	for k := 1; k <= len(cands); k++ {
		s := smt.NewSolver()
		vars := make([]*smt.Expr, len(cands))
		for j := range cands {
			vars[j] = s.Var(fmt.Sprintf("fence!%d", j))
		}
		killers := make([]*smt.Expr, 0, len(cands))
		for _, ks := range kills {
			killers = killers[:0]
			for _, j := range ks {
				killers = append(killers, vars[j])
			}
			s.AssertClause(killers...)
		}
		s.AtMostK(k, vars...)
		if s.Check() == sat.Sat {
			var out []*ir.Instr
			for j := range cands {
				if s.Value(vars[j]) {
					out = append(out, cands[j])
				}
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("repair: hitting set infeasible")
}

// placeable reports whether a fence may be inserted before the
// instruction (terminators and allocas are poor anchors; memory and
// arithmetic instructions are fine).
func placeable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpAlloca, ir.OpBr:
		return false
	}
	return true
}

// walker runs depth-first walks over one A-CFG with a visit stamp per
// node instead of a per-walk seen set.
type walker struct {
	g     *acfg.Graph
	seen  []uint32
	cur   uint32
	stack []int
}

func newWalker(g *acfg.Graph) *walker {
	return &walker{g: g, seen: make([]uint32, g.Len())}
}

// start begins a new walk from n.
func (w *walker) start(n int) {
	w.cur++
	w.seen[n] = w.cur
	w.stack = append(w.stack[:0], n)
}

// reach returns the nodes reachable from n (n included) along next —
// g.Succs for forward reach, g.Preds for backward.
func (w *walker) reach(n int, next func(int) []int) dataflow.BitSet {
	out := dataflow.NewBitSet(w.g.Len())
	out.Set(n)
	w.start(n)
	for len(w.stack) > 0 {
		x := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, s := range next(x) {
			if w.seen[s] != w.cur {
				w.seen[s] = w.cur
				out.Set(s)
				w.stack = append(w.stack, s)
			}
		}
	}
	return out
}

// cutsAllPaths reports whether every from→to path in the A-CFG crosses a
// node whose instruction is in (so a fence before it blocks the window).
// A fence before the transmitter itself blocks it too.
func (w *walker) cutsAllPaths(from, to int, in *ir.Instr) bool {
	if from == to {
		return false
	}
	w.start(from)
	for len(w.stack) > 0 {
		n := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, s := range w.g.Succs(n) {
			if w.g.Nodes[s].Instr == in {
				continue // path blocked here
			}
			if s == to {
				return false
			}
			if w.seen[s] != w.cur {
				w.seen[s] = w.cur
				w.stack = append(w.stack, s)
			}
		}
	}
	return true
}

// insertFenceBefore splices an lfence immediately before the instruction
// in its containing block.
func insertFenceBefore(m *ir.Module, target *ir.Instr) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in == target {
					fence := &ir.Instr{Op: ir.OpFence, Sub: "lfence", Line: in.Line}
					fence.Blk = b
					b.Instrs = append(b.Instrs[:i], append([]*ir.Instr{fence}, b.Instrs[i:]...)...)
					return
				}
			}
		}
	}
}

// CountFences tallies lfence instructions in a module (for reporting).
func CountFences(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpFence && in.Sub == "lfence" {
					n++
				}
			}
		}
	}
	return n
}

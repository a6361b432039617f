package repair

import (
	"fmt"
	"sort"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

// refMinimalFences is the reference fence search minimalFences must agree
// with: on-path tests and cut checks as independent map-based DFS walks,
// re-derived for every span, candidate and fence budget k.
func refMinimalFences(res *detect.Result) ([]*ir.Instr, error) {
	g := res.Graph
	type span struct{ from, to int }
	var spans []span
	for _, f := range res.Findings {
		if f.Store >= 0 && f.Transmit == f.Store {
			for _, n := range g.Nodes {
				if n.Instr != nil && n.Instr.Op == ir.OpRet && refReaches(g, f.Store, n.ID) {
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
	candSet := map[*ir.Instr]bool{}
	for _, sp := range spans {
		for _, n := range g.Nodes {
			if n.Instr == nil || n.Kind == acfg.NEntry || n.Kind == acfg.NExit || n.ID == sp.from {
				continue
			}
			onPath := n.ID == sp.to ||
				(refReaches(g, sp.from, n.ID) && refReaches(g, n.ID, sp.to))
			if onPath && placeable(n.Instr) {
				candSet[n.Instr] = true
			}
		}
	}
	cands := make([]*ir.Instr, 0, len(candSet))
	for in := range candSet {
		cands = append(cands, in)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].String() < cands[j].String() })
	for k := 1; k <= len(cands); k++ {
		s := smt.NewSolver()
		vars := make([]*smt.Expr, len(cands))
		for j := range cands {
			vars[j] = s.Var(fmt.Sprintf("fence!%d", j))
		}
		for i, sp := range spans {
			var killers []*smt.Expr
			for j, in := range cands {
				if refCutsAllPaths(g, sp.from, sp.to, in) {
					killers = append(killers, vars[j])
				}
			}
			if len(killers) == 0 {
				return nil, fmt.Errorf("repair: finding %d has no cutting position", i)
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

func refReaches(g *acfg.Graph, from, to int) bool {
	if from == to {
		return true
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(n) {
			if s == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func refCutsAllPaths(g *acfg.Graph, from, to int, in *ir.Instr) bool {
	if from == to {
		return false
	}
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(n) {
			if g.Nodes[s].Instr == in {
				continue
			}
			if s == to {
				return false
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// TestMinimalFencesMatchReference runs the repair loop over the litmus
// corpus under every engine and checks that each round's fence choice is
// the reference search's, instruction for instruction.
func TestMinimalFencesMatchReference(t *testing.T) {
	rounds := 0
	for _, c := range litmus.All() {
		for _, e := range detect.Engines() {
			m := compile(t, c.Source)
			cfg := detect.DefaultConfig(e)
			for round := 0; round < 4; round++ {
				res, err := detect.AnalyzeFunc(m, c.Fn, cfg)
				if err != nil {
					t.Fatalf("%s/%v: %v", c.Name, e, err)
				}
				if len(res.Findings) == 0 {
					break
				}
				got, gotErr := minimalFences(res)
				want, wantErr := refMinimalFences(res)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || render(got) != render(want) {
					t.Fatalf("%s/%v round %d: fences %s (err %v), reference %s (err %v)",
						c.Name, e, round, render(got), gotErr, render(want), wantErr)
				}
				rounds++
				if len(got) == 0 {
					break
				}
				for _, p := range got {
					insertFenceBefore(m, p)
				}
			}
		}
	}
	if rounds == 0 {
		t.Fatal("no repair round compared")
	}
	t.Logf("%d repair rounds compared", rounds)
}

func render(ins []*ir.Instr) string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.String()
	}
	return fmt.Sprint(out)
}

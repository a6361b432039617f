package detect

// Differential oracle for the CSR value-flow graph: a naive map-adjacency
// DFS, written independently here, must agree with flowGraph.from on the
// (reached, viaGep) verdict of every (source, destination) pair. The edge
// enumeration is intentionally duplicated — if buildFlowGraph's CSR
// packing or counting sort drops or misroutes an edge, the reference
// disagrees.

import (
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
)

type refEdge struct {
	to  int
	gep bool
}

// refFlowEdges enumerates the value-flow edges with plain maps.
func refFlowEdges(g *acfg.Graph, al *alias.Analysis, cfgReach func(from, to int) bool) map[int][]refEdge {
	adj := map[int][]refEdge{}
	add := func(src, to int, gep bool) {
		adj[src] = append(adj[src], refEdge{to: to, gep: gep})
	}
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		switch {
		case n.Kind == acfg.NHavoc:
			for _, defs := range n.ArgDefs {
				for _, d := range defs {
					add(d, n.ID, false)
				}
			}
		case n.IsLoad():
		case n.IsStore():
			for _, d := range n.ArgDefs[0] {
				add(d, n.ID, false)
			}
		case n.Kind == acfg.NInstr:
			switch n.Instr.Op {
			case ir.OpBin, ir.OpCmp, ir.OpCast, ir.OpGEP, ir.OpFieldGEP:
				for i, defs := range n.ArgDefs {
					gep := n.Instr.Op == ir.OpGEP && i == 1
					for _, d := range defs {
						add(d, n.ID, gep)
					}
				}
			}
		}
	}
	for _, s := range g.Nodes {
		if !s.IsStore() {
			continue
		}
		for _, l := range g.Nodes {
			if l.IsLoad() && al.MayAlias(s, l) && cfgReach(s.ID, l.ID) {
				add(s.ID, l.ID, false)
			}
		}
	}
	return adj
}

// refReach runs the reference DFS over (node, crossed-gep) states.
func refReach(adj map[int][]refEdge, src int) (reached, viaGep map[int]bool) {
	reached, viaGep = map[int]bool{}, map[int]bool{}
	type state struct {
		node int
		gep  bool
	}
	visited := map[state]bool{}
	stack := []state{{node: src}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[st] {
			continue
		}
		visited[st] = true
		reached[st.node] = true
		if st.gep {
			viaGep[st.node] = true
		}
		for _, e := range adj[st.node] {
			next := state{node: e.to, gep: st.gep || e.gep}
			if !visited[next] {
				stack = append(stack, next)
			}
		}
	}
	return reached, viaGep
}

// diffFlowFunc pins the CSR graph against the reference for one function,
// using every load and store as a source.
func diffFlowFunc(t *testing.T, label string, m *ir.Module, fn string) {
	t.Helper()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("%s/%s: acfg: %v", label, fn, err)
	}
	al := alias.Analyze(g)
	reach := cfgReachability(g)
	fg := buildFlowGraph(g, al, reach)
	adj := refFlowEdges(g, al, reach.reaches)
	for _, src := range g.Nodes {
		if !src.IsLoad() && !src.IsStore() {
			continue
		}
		r := fg.from(src.ID)
		wantReach, wantGep := refReach(adj, src.ID)
		for dst := 0; dst < g.Len(); dst++ {
			gotOK, gotGep := r.reaches(dst)
			if gotOK != wantReach[dst] || gotGep != wantGep[dst] {
				t.Fatalf("%s/%s: from(%d).reaches(%d) = (%v,%v), reference (%v,%v)",
					label, fn, src.ID, dst, gotOK, gotGep, wantReach[dst], wantGep[dst])
			}
		}
		if r.popcount() != len(wantReach) {
			t.Fatalf("%s/%s: from(%d) reaches %d nodes, reference %d",
				label, fn, src.ID, r.popcount(), len(wantReach))
		}
	}
}

func TestFlowGraphMatchesReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		m := compile(t, c.Source)
		for _, f := range m.Funcs {
			if !f.IsDecl() {
				diffFlowFunc(t, "litmus/"+c.Name, m, f.Nm)
			}
		}
	}
}

func TestFlowGraphMatchesReferenceCryptolib(t *testing.T) {
	// Bound the sweep to small and mid-size functions: the reference DFS is
	// map-backed and one donna limb function alone would dominate the
	// package's test time without adding edge-shape coverage.
	const maxNodes = 400
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			g, err := acfg.Build(m, f.Nm, acfg.Options{})
			if err != nil {
				t.Fatalf("%s/%s: acfg: %v", lib.Name, f.Nm, err)
			}
			if g.Len() > maxNodes {
				continue
			}
			diffFlowFunc(t, "cryptolib/"+lib.Name, m, f.Nm)
		}
	}
}

package detect

// Differential oracle for the CSR value-flow graph: a naive map-adjacency
// DFS, written independently here, must agree with flowGraph.from on the
// (reached, viaGep) verdict of every (source, destination) pair. The edge
// enumeration is intentionally duplicated — if buildFlowGraph's CSR
// packing or counting sort drops or misroutes an edge, the reference
// disagrees.

import (
	"reflect"
	"sync"
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
// using every load and store as a source. It returns how many sources
// reach some node through a gep index hop.
func diffFlowFunc(t *testing.T, label string, m *ir.Module, fn string) (viaGep int) {
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
		if r.viaGep != nil {
			viaGep++
		}
	}
	return viaGep
}

func TestFlowGraphMatchesReferenceLitmus(t *testing.T) {
	viaGep := 0
	for _, c := range litmus.All() {
		m := compile(t, c.Source)
		for _, f := range m.Funcs {
			if !f.IsDecl() {
				viaGep += diffFlowFunc(t, "litmus/"+c.Name, m, f.Nm)
			}
		}
	}
	// viaGep is allocated only once a gep-crossing state is reached; the
	// corpus must exercise that branch, not just the nil one.
	if viaGep == 0 {
		t.Fatal("no litmus source reaches a node through a gep index hop")
	}
}

// TestFlowFromConcurrent calls from on one cold flowGraph from 8
// goroutines, each sweeping every load and store from its own starting
// offset, and compares every answer with a serial sweep of a second
// graph: the pooled DFS scratch and the memo must not leak state between
// concurrent sources. make race-core runs it under the race detector.
func TestFlowFromConcurrent(t *testing.T) {
	type subject struct {
		label string
		m     *ir.Module
		fn    string
	}
	var subjects []subject
	for _, c := range litmus.All() {
		subjects = append(subjects, subject{"litmus/" + c.Name, compile(t, c.Source), c.Fn})
	}
	lib, ok := cryptolib.Lookup("secretbox")
	if !ok {
		t.Fatal("secretbox corpus entry missing")
	}
	subjects = append(subjects, subject{"secretbox", compile(t, lib.Source), "crypto_secretbox_open"})

	const workers = 8
	for _, s := range subjects {
		g, err := acfg.Build(s.m, s.fn, acfg.Options{})
		if err != nil {
			t.Fatalf("%s: acfg: %v", s.label, err)
		}
		al := alias.Analyze(g)
		reach := cfgReachability(g)
		var srcs []int
		for _, n := range g.Nodes {
			if n.IsLoad() || n.IsStore() {
				srcs = append(srcs, n.ID)
			}
		}
		serial := buildFlowGraph(g, al, reach)
		want := make([]reachInfo, len(srcs))
		for i, src := range srcs {
			want[i] = serial.from(src)
		}
		shared := buildFlowGraph(g, al, reach)
		got := make([][]reachInfo, workers)
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]reachInfo, len(srcs))
			wg.Add(1)
			go func(out []reachInfo, off int) {
				defer wg.Done()
				for k := range srcs {
					i := (k + off) % len(srcs)
					out[i] = shared.from(srcs[i])
				}
			}(got[w], w*len(srcs)/workers)
		}
		wg.Wait()
		for w := range got {
			for i, src := range srcs {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Fatalf("%s: worker %d from(%d) differs from the serial sweep", s.label, w, src)
				}
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

package acfg

// The pre-index call splicer, kept as the reference the indexed builder
// must reproduce exactly (TestBuildMatchesSpliceReference). Every splice
// rescans all nodes' ArgDefs for the call's ID and rebuilds the whole edge
// list to re-route the call's out-edges through the callee's rets, and
// finish deduplicates edges through a map — O(calls × graph), but short
// enough to audit by eye.

import (
	"fmt"

	"lcm/internal/ir"
)

// refBuild constructs the A-CFG with the reference splicer.
func refBuild(m *ir.Module, fn string, opts Options) (*Graph, error) {
	opts.defaults()
	f := m.Func(fn)
	if f == nil || f.IsDecl() {
		return nil, fmt.Errorf("acfg: no definition for %q", fn)
	}
	b := &refBuilder{m: m, opts: opts, g: &Graph{Fn: fn}}
	entry := b.newNode(&Node{Kind: NEntry, Ctx: fn})
	b.g.Entry = entry.ID
	chain := map[string]int{}
	first, lasts, _, err := b.inline(f, chain, nil, fn)
	if err != nil {
		return nil, err
	}
	exit := b.newNode(&Node{Kind: NExit, Ctx: fn})
	b.g.Exit = exit.ID
	b.edge(entry.ID, first)
	for _, l := range lasts {
		b.edge(l, exit.ID)
	}
	b.finish()
	return b.g, nil
}

type refBuilder struct {
	m     *ir.Module
	opts  Options
	g     *Graph
	edges [][2]int
}

func (b *refBuilder) newNode(n *Node) *Node {
	n.ID = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *refBuilder) edge(from, to int) { b.edges = append(b.edges, [2]int{from, to}) }

func (b *refBuilder) finish() {
	n := len(b.g.Nodes)
	b.g.succs = make([][]int, n)
	b.g.preds = make([][]int, n)
	seen := map[[2]int]bool{}
	for _, e := range b.edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		b.g.succs[e[0]] = append(b.g.succs[e[0]], e[1])
		b.g.preds[e[1]] = append(b.g.preds[e[1]], e[0])
	}
}

func (b *refBuilder) inline(f *ir.Func, chain map[string]int, argDefs [][]int, ctx string) (int, []int, []int, error) {
	if len(b.g.Nodes) > b.opts.MaxNodes {
		return 0, nil, nil, fmt.Errorf("acfg: node budget exceeded (%d)", b.opts.MaxNodes)
	}
	chain[f.Nm]++
	defer func() { chain[f.Nm]-- }()

	insts := unrollBlocks(f, b.opts.Unroll)
	if len(insts) == 0 {
		return 0, nil, nil, fmt.Errorf("acfg: empty function %q", f.Nm)
	}

	defs := map[*ir.Instr][]int{}
	firstNode := map[*blockInstance]int{}
	lastNode := map[*blockInstance]int{}
	var retNodes []int
	var retDefs []int
	type splice struct {
		node   *Node
		callee *ir.Func
	}
	var splices []splice

	resolveArg := func(v ir.Value) []int {
		switch v := v.(type) {
		case *ir.Instr:
			return append([]int(nil), defs[v]...)
		case *ir.Param:
			if argDefs != nil && v.Idx < len(argDefs) {
				return append([]int(nil), argDefs[v.Idx]...)
			}
			return nil
		default:
			return nil
		}
	}

	for _, inst := range insts {
		prev := -1
		for _, in := range inst.block.Instrs {
			if in.Op == ir.OpBr {
				continue
			}
			kind := NInstr
			var callee *ir.Func
			if in.Op == ir.OpCall {
				callee = b.m.Func(in.Callee)
				if callee == nil || callee.IsDecl() || chain[in.Callee] >= b.opts.InlineDepth {
					callee = nil
					kind = NHavoc
				}
			}
			n := b.newNode(&Node{Kind: kind, Instr: in, Ctx: ctx})
			for _, a := range in.Args {
				n.ArgDefs = append(n.ArgDefs, resolveArg(a))
			}
			defs[in] = append(defs[in], n.ID)
			if prev >= 0 {
				b.edge(prev, n.ID)
			} else {
				firstNode[inst] = n.ID
			}
			prev = n.ID
			if in.Op == ir.OpCall && kind == NInstr {
				splices = append(splices, splice{node: n, callee: callee})
			}
			if in.Op == ir.OpRet {
				retNodes = append(retNodes, n.ID)
				if len(in.Args) == 1 {
					retDefs = append(retDefs, resolveArg(in.Args[0])...)
				}
			}
		}
		if prev == -1 {
			n := b.newNode(&Node{Kind: NInstr, Instr: &ir.Instr{Op: ir.OpFence, Sub: "nop"}, Ctx: ctx})
			firstNode[inst] = n.ID
			prev = n.ID
		}
		lastNode[inst] = prev
	}

	for _, inst := range insts {
		for _, s := range inst.succs {
			b.edge(lastNode[inst], firstNode[s])
		}
	}

	for _, sp := range splices {
		subCtx := ctx + "/" + sp.callee.Nm + fmt.Sprintf("#%d", chain[sp.callee.Nm]+1)
		subFirst, subLasts, subRets, err := b.inline(sp.callee, chain, sp.node.ArgDefs, subCtx)
		if err != nil {
			return 0, nil, nil, err
		}
		callID := sp.node.ID
		for _, n := range b.g.Nodes {
			for i, ds := range n.ArgDefs {
				var out []int
				changed := false
				for _, d := range ds {
					if d == callID {
						out = append(out, subRets...)
						changed = true
					} else {
						out = append(out, d)
					}
				}
				if changed {
					n.ArgDefs[i] = out
				}
			}
		}
		var newEdges [][2]int
		for _, e := range b.edges {
			if e[0] == callID {
				for _, l := range subLasts {
					newEdges = append(newEdges, [2]int{l, e[1]})
				}
				continue
			}
			newEdges = append(newEdges, e)
		}
		b.edges = newEdges
		b.edge(callID, subFirst)
		sp.node.Kind = NInstr
		sp.node.Instr = &ir.Instr{Op: ir.OpFence, Sub: "inlined:" + sp.callee.Nm}
		sp.node.ArgDefs = nil
	}

	first := firstNode[insts[0]]
	return first, retNodes, retDefs, nil
}

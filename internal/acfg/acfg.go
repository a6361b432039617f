// Package acfg builds the Abstract CFG of §5.1: a loop- and call-free DAG
// over a function's instructions. Loops are summarized with two unrollings
// (enough to model all com/comx interactions between loop iterations given
// may-alias summaries, §5.1); calls to defined functions are inlined with
// recursion depth 2; calls to undefined functions remain as havoc nodes,
// which downstream analyses treat as a load or store to any pointer
// operand.
package acfg

import (
	"fmt"
	"slices"

	"lcm/internal/ir"
)

// NodeKind classifies A-CFG nodes.
type NodeKind int

// Node kinds.
const (
	NEntry NodeKind = iota
	NExit
	NInstr
	NHavoc // call to an undefined function: may load/store its pointer args
)

// Node is one abstract instruction instance (an original instruction in a
// particular unroll/inline context).
type Node struct {
	ID    int
	Kind  NodeKind
	Instr *ir.Instr
	// Ctx is the inline/unroll context, e.g. "main/f#1".
	Ctx string
	// ArgDefs lists, for each operand of Instr, the A-CFG nodes that may
	// define it (empty for constants, globals, and attacker-visible
	// top-level parameters).
	ArgDefs [][]int
	// RetDefs, for inlined call result uses, is resolved into ArgDefs of
	// the users; HavocArgs preserves pointer operands of havoc calls.
}

// IsLoad reports whether the node is a memory read.
func (n *Node) IsLoad() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpLoad }

// IsStore reports whether the node is a memory write.
func (n *Node) IsStore() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpStore }

// IsBranch reports whether the node is a conditional branch.
func (n *Node) IsBranch() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpCondBr }

// IsFence reports whether the node is a speculation fence.
func (n *Node) IsFence() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpFence }

func (n *Node) String() string {
	switch n.Kind {
	case NEntry:
		return fmt.Sprintf("%d: entry", n.ID)
	case NExit:
		return fmt.Sprintf("%d: exit", n.ID)
	case NHavoc:
		return fmt.Sprintf("%d: havoc call @%s [%s]", n.ID, n.Instr.Callee, n.Ctx)
	}
	return fmt.Sprintf("%d: %s [%s]", n.ID, n.Instr, n.Ctx)
}

// Graph is the A-CFG: a DAG with one entry and one exit.
type Graph struct {
	Fn    string
	Nodes []*Node
	Entry int
	Exit  int
	succs [][]int
	preds [][]int
}

// Succs returns the successor node IDs of n.
func (g *Graph) Succs(n int) []int { return g.succs[n] }

// Preds returns the predecessor node IDs of n.
func (g *Graph) Preds(n int) []int { return g.preds[n] }

// Len returns the node count — the S-AEG size metric of Fig. 8.
func (g *Graph) Len() int { return len(g.Nodes) }

// Options configures A-CFG construction.
type Options struct {
	// Unroll is the number of loop body instances (the paper uses 2).
	Unroll int
	// InlineDepth bounds how many times one function may appear in an
	// inline chain (the paper inlines recursion twice).
	InlineDepth int
	// MaxNodes aborts construction when the graph explodes.
	MaxNodes int
}

func (o *Options) defaults() {
	if o.Unroll == 0 {
		o.Unroll = 2
	}
	if o.InlineDepth == 0 {
		o.InlineDepth = 2
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 60_000
	}
}

// Build constructs the A-CFG for the named function.
func Build(m *ir.Module, fn string, opts Options) (*Graph, error) {
	opts.defaults()
	f := m.Func(fn)
	if f == nil || f.IsDecl() {
		return nil, fmt.Errorf("acfg: no definition for %q", fn)
	}
	b := &builder{m: m, opts: opts, g: &Graph{Fn: fn}, uses: map[int][]argPos{}, rets: map[int][]int{}}
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

type builder struct {
	m     *ir.Module
	opts  Options
	g     *Graph
	edges []edge

	// uses[c] lists the operand lists the ID of pending call node c was
	// written into, so splicing c rewrites exactly those (def-use index).
	uses map[int][]argPos
	// rets[c] holds spliced call c's callee rets: its call-out edges stand
	// for one edge from each of them.
	rets map[int][]int
}

// edge is one wiring edge in creation order. A call-out edge leaves a call
// node before that call is spliced; finish expands it, in place, into one
// edge from each callee ret, which is where the call's continuation moves.
type edge struct {
	from, to int
	callOut  bool
}

// argPos names one operand list: Nodes[node].ArgDefs[op].
type argPos struct{ node, op int }

func (b *builder) newNode(n *Node) *Node {
	n.ID = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// pendingCall reports whether node id is a call still waiting to be
// spliced; splicing turns it into a fence marker.
func (b *builder) pendingCall(id int) bool {
	n := b.g.Nodes[id]
	return n.Kind == NInstr && n.Instr.Op == ir.OpCall
}

func (b *builder) edge(from, to int) {
	b.edges = append(b.edges, edge{from: from, to: to, callOut: b.pendingCall(from)})
}

// setArgDefs stores one operand list and indexes it under every pending
// call it names.
func (b *builder) setArgDefs(p argPos, defs []int) {
	b.g.Nodes[p.node].ArgDefs[p.op] = defs
	for _, d := range defs {
		if b.pendingCall(d) {
			b.uses[d] = append(b.uses[d], p)
		}
	}
}

// splice replaces pending call c by its inlined body: every operand list
// naming c gets the callee's returned defs in c's place, c's out-edges
// move to the callee rets, and c becomes a fence marker entering the
// callee at first.
func (b *builder) splice(c int, callee *ir.Func, first int, lasts, retDefs []int) {
	for _, p := range b.uses[c] {
		ds := b.g.Nodes[p.node].ArgDefs[p.op]
		hits := 0
		for _, d := range ds {
			if d == c {
				hits++
			}
		}
		if hits == 0 {
			continue // position listed twice; already rewritten
		}
		var out []int
		if k := len(ds) + hits*(len(retDefs)-1); k > 0 {
			out = make([]int, 0, k)
		}
		for _, d := range ds {
			if d == c {
				out = append(out, retDefs...)
			} else {
				out = append(out, d)
			}
		}
		b.setArgDefs(p, out)
	}
	delete(b.uses, c)
	b.rets[c] = lasts
	n := b.g.Nodes[c]
	n.Kind = NInstr
	n.Instr = &ir.Instr{Op: ir.OpFence, Sub: "inlined:" + callee.Nm}
	n.ArgDefs = nil
	b.edge(c, first)
}

// finish expands call-out edges and builds the deduplicated adjacency,
// keeping each edge's first occurrence in list order.
func (b *builder) finish() {
	n := len(b.g.Nodes)
	b.g.succs = make([][]int, n)
	b.g.preds = make([][]int, n)
	add := func(from, to int) {
		if slices.Contains(b.g.succs[from], to) {
			return
		}
		b.g.succs[from] = append(b.g.succs[from], to)
		b.g.preds[to] = append(b.g.preds[to], from)
	}
	for _, e := range b.edges {
		if !e.callOut {
			add(e.from, e.to)
			continue
		}
		for _, l := range b.rets[e.from] {
			add(l, e.to)
		}
	}
}

// blockInstance is one unrolled copy of an ir.Block.
type blockInstance struct {
	id    int // instance id
	block *ir.Block
	succs []*blockInstance
}

// unrollBlocks converts a function's CFG into a DAG of block instances by
// peeling each loop Unroll times and cutting the final back edge toward
// the loop exit.
func unrollBlocks(f *ir.Func, unroll int) []*blockInstance {
	// Build per-iteration instance layers lazily: we walk the CFG keeping
	// a visit count per block along the current path; a block may be
	// entered at most `unroll` times per path. This duplicates loop bodies
	// like iterative peeling and guarantees a DAG.
	type key struct {
		b     *ir.Block
		count int
	}
	instances := map[key]*blockInstance{}
	var all []*blockInstance
	counts := map[*ir.Block]int{}

	var walk func(blk *ir.Block) *blockInstance
	walk = func(blk *ir.Block) *blockInstance {
		c := counts[blk]
		if c >= unroll {
			return nil // back edge beyond the unroll budget: cut
		}
		k := key{blk, c}
		if inst, ok := instances[k]; ok {
			return inst
		}
		inst := &blockInstance{id: len(all), block: blk}
		instances[k] = inst
		all = append(all, inst)
		counts[blk]++
		for _, s := range blk.Succs() {
			if si := walk(s); si != nil {
				inst.succs = append(inst.succs, si)
			}
		}
		counts[blk]--
		return inst
	}
	walk(f.Entry())
	return all
}

// inline instantiates fn's body as A-CFG nodes. argDefs provides, per
// parameter, the defining nodes of the actual arguments (nil for the
// top-level function). It returns the first node ID, the set of final node
// IDs (rets), and the def sets of returned values.
func (b *builder) inline(f *ir.Func, chain map[string]int, argDefs [][]int, ctx string) (int, []int, []int, error) {
	if len(b.g.Nodes) > b.opts.MaxNodes {
		return 0, nil, nil, fmt.Errorf("acfg: node budget exceeded (%d)", b.opts.MaxNodes)
	}
	chain[f.Nm]++
	defer func() { chain[f.Nm]-- }()

	insts := unrollBlocks(f, b.opts.Unroll)
	if len(insts) == 0 {
		return 0, nil, nil, fmt.Errorf("acfg: empty function %q", f.Nm)
	}

	// Per block-instance, the first and last node created for its
	// instructions, and per instruction all its instances' node IDs.
	defs := map[*ir.Instr][]int{}
	firstNode := make([]int, len(insts))
	lastNode := make([]int, len(insts))
	var retNodes []int
	var retDefs []int
	// splices records call nodes to splice after wiring.
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
			return nil // top-level parameter: attacker-visible input
		default:
			return nil // constants, globals
		}
	}

	// First pass: create nodes per instance in creation order (instances
	// are discovered in DFS order, which respects dominance for the
	// structured CFGs our lowering emits, so defs precede uses).
	for _, inst := range insts {
		prev := -1
		for _, in := range inst.block.Instrs {
			if in.Op == ir.OpBr {
				continue // unconditional branches are pure wiring
			}
			kind := NInstr
			var callee *ir.Func
			if in.Op == ir.OpCall {
				callee = b.m.Func(in.Callee)
				if callee == nil || callee.IsDecl() || chain[in.Callee] >= b.opts.InlineDepth {
					// Undefined target, or recursion beyond the inline
					// budget: model the call as a havoc node (§5.1).
					callee = nil
					kind = NHavoc
				}
			}
			n := b.newNode(&Node{Kind: kind, Instr: in, Ctx: ctx})
			if len(in.Args) > 0 {
				n.ArgDefs = make([][]int, len(in.Args))
				for i, a := range in.Args {
					b.setArgDefs(argPos{node: n.ID, op: i}, resolveArg(a))
				}
			}
			defs[in] = append(defs[in], n.ID)
			if prev >= 0 {
				b.edge(prev, n.ID)
			} else {
				firstNode[inst.id] = n.ID
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
			// Block contained only an unconditional br: synthesize a
			// pass-through marker so wiring has an anchor.
			n := b.newNode(&Node{Kind: NInstr, Instr: &ir.Instr{Op: ir.OpFence, Sub: "nop"}, Ctx: ctx})
			firstNode[inst.id] = n.ID
			prev = n.ID
		}
		lastNode[inst.id] = prev
	}

	// Second pass: wire block instances.
	for _, inst := range insts {
		for _, s := range inst.succs {
			b.edge(lastNode[inst.id], firstNode[s.id])
		}
	}

	// Third pass: splice inlined callees. The call node stays as a
	// pass-through marker entering the callee; its users and its
	// continuation move to the callee's returns.
	for _, sp := range splices {
		subCtx := ctx + "/" + sp.callee.Nm + fmt.Sprintf("#%d", chain[sp.callee.Nm]+1)
		subFirst, subLasts, subRets, err := b.inline(sp.callee, chain, sp.node.ArgDefs, subCtx)
		if err != nil {
			return 0, nil, nil, err
		}
		b.splice(sp.node.ID, sp.callee, subFirst, subLasts, subRets)
	}

	// Entry point and final nodes. Rets within inlined calls terminate the
	// *callee*; for the instance set built here, function-level lasts are
	// ret nodes.
	return firstNode[insts[0].id], retNodes, retDefs, nil
}

// Topo returns the nodes in topological order (the graph is a DAG by
// construction).
func (g *Graph) Topo() []int {
	indeg := make([]int, len(g.Nodes))
	for _, ss := range g.succs {
		for _, s := range ss {
			indeg[s]++
		}
	}
	var order []int
	var ready []int
	for i := range g.Nodes {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, s := range g.succs[n] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// Reachable returns the set of nodes reachable from start within maxDepth
// instruction steps (maxDepth < 0 means unbounded).
func (g *Graph) Reachable(start int, maxDepth int) map[int]bool {
	out := map[int]bool{start: true}
	frontier := []int{start}
	depth := 0
	for len(frontier) > 0 {
		if maxDepth >= 0 && depth >= maxDepth {
			break
		}
		var next []int
		for _, n := range frontier {
			for _, s := range g.succs[n] {
				if !out[s] {
					out[s] = true
					next = append(next, s)
				}
			}
		}
		frontier = next
		depth++
	}
	return out
}

package detect

// Reference-equivalence tests for the candidate-loop kernels. Each old
// construction is kept here, verbatim in behaviour, as the reference the
// shipped kernel must match on every litmus graph and every crypto-corpus
// graph:
//
//   - refBfsDist, the map-distance BFS behind nearSets;
//   - refBypassPairs, the stores × loads scan of the STL and PSF engines;
//   - refCondFeeders, the per-branch scan of every load's reach;
//   - refFenceReach, the per-source fence-free BFS over a []bool;
//   - refArch, presolve's arch witness with one BFS per segment
//     from entry (graph-sized on-path table and a take map per call);
//   - refFlowGraph, the value-flow CSR with its data.rf hops found by a
//     MayAlias && cfgReach test per (store, load) pair.

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/presolve"
)

// refSubject is one analyzed function of the equivalence corpus.
type refSubject struct {
	name string
	m    *ir.Module
	fn   string
}

// refSubjects returns every litmus function and every public crypto
// function, compiled.
func refSubjects(t *testing.T) []refSubject {
	t.Helper()
	var out []refSubject
	for _, c := range litmus.All() {
		out = append(out, refSubject{"litmus/" + c.Name, compile(t, c.Source), c.Fn})
	}
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, fn := range lib.PublicFuncs {
			out = append(out, refSubject{lib.Name + "/" + fn, m, fn})
		}
	}
	return out
}

// newTestDetector wires a detector the way AnalyzeFuncCtx does, uncached
// and with the default pruner and the pre-solver on, without running it.
func newTestDetector(t testing.TB, s refSubject, cfg Config) *detector {
	t.Helper()
	fe, err := buildFrontend(s.m, s.fn, cfg.ACFG)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	a := aeg.Build(fe.g, fe.al, cfg.AEG)
	pruner := dataflow.NewPruner(s.m)
	return &detector{
		ctx: context.Background(), cfg: cfg, key: s.fn,
		g: fe.g, al: fe.al, ta: fe.ta, a: a,
		res:      &Result{Fn: s.fn},
		cfgReach: fe.cfgReach,
		flow:     fe.flow,
		pruner:   pruner,
		ps:       presolve.NewAnalysis(fe.presolveFacts(pruner.Ranges()), a),
	}
}

// refBfsDist is the map-based bounded BFS.
func refBfsDist(g *acfg.Graph, from, lsqB, winB int) *nearSets {
	bound := max(lsqB, winB)
	ns := &nearSets{lsq: dataflow.NewBitSet(g.Len()), win: dataflow.NewBitSet(g.Len())}
	mark := func(n, dn int) {
		if dn <= lsqB {
			ns.lsq.Set(n)
		}
		if dn <= winB {
			ns.win.Set(n)
		}
	}
	mark(from, 0)
	dist := map[int]int{from: 0}
	queue := []int{from}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		dn := dist[n]
		if dn == bound {
			continue
		}
		for _, s := range g.Succs(n) {
			if _, seen := dist[s]; !seen {
				dist[s] = dn + 1
				mark(s, dn+1)
				queue = append(queue, s)
			}
		}
	}
	return ns
}

// TestNearSetsMatchBFS pins the level-synchronous bfsDist to the map BFS
// from every store and load, under the default bounds, a tight pair, and
// LSQ above Wsize (which swaps the set that marks visits).
func TestNearSetsMatchBFS(t *testing.T) {
	for _, s := range refSubjects(t) {
		for _, opts := range []aeg.Options{{}, {LSQ: 3, Wsize: 5}, {LSQ: 7, Wsize: 2}} {
			cfg := DefaultSTL()
			cfg.AEG = opts
			d := newTestDetector(t, s, cfg)
			for _, n := range d.g.Nodes {
				if !n.IsStore() && !n.IsLoad() {
					continue
				}
				got := d.bfsDist(n.ID)
				want := refBfsDist(d.g, n.ID, d.a.Opts.LSQ, d.a.Opts.Wsize)
				if !got.lsq.Equal(want.lsq) || !got.win.Equal(want.win) {
					t.Fatalf("%s %+v: near sets of node %d differ from the reference", s.name, opts, n.ID)
				}
			}
		}
	}
}

// refBypassPairs is the stores × loads scan of the STL (alias filter,
// disjoint-pair prune) and PSF (exact-forward exclusion) engines,
// returning the pairs and the Candidates/Pruned counts it charges.
func refBypassPairs(d *detector) (pairs []bypassPair, candidates, pruned int) {
	var stores, loads []*acfg.Node
	for _, n := range d.g.Nodes {
		if n.IsStore() {
			stores = append(stores, n)
		}
		if n.IsLoad() {
			loads = append(loads, n)
		}
	}
	near := func(s int) dataflow.BitSet {
		return refBfsDist(d.g, s, d.a.Opts.LSQ, d.a.Opts.Wsize).lsq
	}
	for _, s := range stores {
		lsq := near(s.ID)
		for _, l := range loads {
			if !d.cfgReach(s.ID, l.ID) {
				continue
			}
			if d.cfg.Engine == STL && !d.al.MayAliasTransient(s, l) {
				continue
			}
			if !lsq.Has(l.ID) {
				continue
			}
			if d.cfg.Engine == PSF && mustAliasExact(s, l) {
				continue
			}
			candidates++
			if d.cfg.Engine == STL && d.pruner != nil && s.Instr != nil && l.Instr != nil &&
				d.pruner.DisjointPair(s.Instr, l.Instr) {
				pruned++
				continue
			}
			pairs = append(pairs, bypassPair{s.ID, l.ID})
		}
	}
	return pairs, candidates, pruned
}

// TestBypassPairsMatchScan pins the LSQ-window pair walker to the scan:
// same pairs in the same order, same Candidates and Pruned.
func TestBypassPairsMatchScan(t *testing.T) {
	for _, s := range refSubjects(t) {
		for _, mk := range []func() Config{DefaultSTL, DefaultPSF} {
			d := newTestDetector(t, s, mk())
			got, ok := d.bypassPairs()
			if !ok {
				t.Fatalf("%s %s: pair walk ran out of budget", s.name, d.cfg.Engine)
			}
			want, cands, pruned := refBypassPairs(d)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s: %d pairs, reference %d (or order differs)", s.name, d.cfg.Engine, len(got), len(want))
			}
			if d.res.Candidates != cands || d.res.Pruned != pruned {
				t.Fatalf("%s %s: candidates/pruned %d/%d, reference %d/%d",
					s.name, d.cfg.Engine, d.res.Candidates, d.res.Pruned, cands, pruned)
			}
		}
	}
}

// refFenceReach is the fence-free BFS from a over a graph-sized []bool.
func refFenceReach(g *acfg.Graph, a int) []bool {
	reach := make([]bool, g.Len())
	reach[a] = true
	queue := []int{a}
	for head := 0; head < len(queue); head++ {
		for _, s := range g.Succs(queue[head]) {
			sn := g.Nodes[s]
			if reach[s] || (sn.IsFence() && sn.Instr.Sub == "lfence") {
				continue
			}
			reach[s] = true
			queue = append(queue, s)
		}
	}
	return reach
}

// TestFenceBetweenMatchesBFS pins fenceBetween — the closure shortcut on
// lfence-free graphs, the bitset BFS elsewhere — to the reference from
// every store (the sources the bypass and silent-store engines ask
// about) to every node.
func TestFenceBetweenMatchesBFS(t *testing.T) {
	fenced := 0
	for _, s := range refSubjects(t) {
		d := newTestDetector(t, s, DefaultSTL())
		for _, src := range d.g.Nodes {
			if !src.IsStore() {
				continue
			}
			want := refFenceReach(d.g, src.ID)
			for b := range want {
				if got := d.fenceBetween(src.ID, b); got != !want[b] {
					t.Fatalf("%s: fenceBetween(%d, %d) = %v, reference %v", s.name, src.ID, b, got, !want[b])
				}
			}
		}
		if d.lfences > 0 {
			fenced++
		}
	}
	if fenced == 0 {
		t.Fatal("no subject has an lfence: the BFS path went untested")
	}
}

// refCondFeeders is the per-branch scan: every load whose reach set hits
// one of c's condition defs, in loads order.
func refCondFeeders(d *detector, c int, loads []*acfg.Node) []int {
	cn := d.g.Nodes[c]
	var accs []int
	if len(cn.ArgDefs) > 0 {
		for _, acc := range loads {
			r := d.flow.from(acc.ID)
			for _, condDef := range cn.ArgDefs[0] {
				if ok, _ := r.reaches(condDef); ok {
					accs = append(accs, acc.ID)
					break
				}
			}
		}
	}
	return accs
}

// TestCondFeedersMatchScan pins the inverted condition sweep to the
// per-branch scan on every branch the PHT engine asks about.
func TestCondFeedersMatchScan(t *testing.T) {
	for _, s := range refSubjects(t) {
		d := newTestDetector(t, s, DefaultPHT())
		loads := d.loads()
		for _, b := range d.a.Branches() {
			got, want := d.condFeeders(b, loads), refCondFeeders(d, b, loads)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: branch %d feeders %v, reference %v", s.name, b, got, want)
			}
		}
	}
}

// refArch is the per-call arch witness: order the waypoints by
// reachability, BFS every segment entry → w₀ → … → wₖ (pruned by
// topological position), collect takes in a map, and replay from entry
// over a graph-sized on-path table. Only the BFS visit marks persist
// across calls, epoch-stamped, as they did in the old kernel.
type refArch struct {
	g      *acfg.Graph
	reach  func(from, to int) bool
	topo   []int // topological position per node
	parent []int
	stamp  []int
	epoch  int
}

func newRefArch(g *acfg.Graph, reach func(from, to int) bool) *refArch {
	r := &refArch{g: g, reach: reach, topo: make([]int, g.Len()), parent: make([]int, g.Len()), stamp: make([]int, g.Len())}
	for i, id := range g.Topo() {
		r.topo[id] = i
	}
	return r
}

func (r *refArch) bfsPath(src, dst int) []int {
	g := r.g
	r.epoch++
	ep := r.epoch
	r.stamp[src], r.parent[src] = ep, src
	queue := []int{src}
	for head := 0; head < len(queue) && r.stamp[dst] != ep; head++ {
		n := queue[head]
		for _, s := range g.Succs(n) {
			if r.stamp[s] != ep && r.topo[s] <= r.topo[dst] {
				r.stamp[s], r.parent[s] = ep, n
				queue = append(queue, s)
			}
		}
	}
	if r.stamp[dst] != ep {
		return nil
	}
	var path []int
	for n := dst; ; n = r.parent[n] {
		path = append(path, n)
		if n == src {
			break
		}
	}
	slices.Reverse(path)
	return path
}

func (r *refArch) witness(nodes []int) *presolve.Certificate {
	g := r.g
	reaches := func(m, n int) bool { return m == n || r.reach(m, n) }
	ord := slices.Clone(nodes)
	slices.Sort(ord)
	ord = slices.Compact(ord)
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && reaches(ord[j], ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for i := 1; i < len(ord); i++ {
		if ord[i-1] != ord[i] && !reaches(ord[i-1], ord[i]) {
			return nil
		}
	}
	takeFor := func(p, q int) (bool, bool) {
		succ := g.Succs(p)
		if len(succ) < 2 || succ[0] == succ[1] {
			return false, false
		}
		return succ[0] == q, true
	}
	takes := map[int]bool{}
	cur := g.Entry
	for _, w := range ord {
		if w == cur {
			continue
		}
		seg := r.bfsPath(cur, w)
		if seg == nil {
			return nil
		}
		for i := 0; i+1 < len(seg); i++ {
			if t, ok := takeFor(seg[i], seg[i+1]); ok {
				if prev, dup := takes[seg[i]]; dup && prev != t {
					return nil
				}
				takes[seg[i]] = t
			}
		}
		cur = w
	}
	var path []int
	onPath := make([]bool, g.Len())
	for n := g.Entry; ; {
		path = append(path, n)
		onPath[n] = true
		succ := g.Succs(n)
		if len(succ) == 0 {
			break
		}
		next := succ[0]
		if g.Nodes[n].IsBranch() && len(succ) >= 2 && succ[0] != succ[1] {
			t, ok := takes[n]
			if !ok {
				t = true
				takes[n] = t
			}
			if !t {
				next = succ[1]
			}
		}
		if onPath[next] {
			break
		}
		n = next
	}
	for _, w := range ord {
		if !onPath[w] {
			return nil
		}
	}
	tl := make([]presolve.BranchTake, 0, len(takes))
	for br, t := range takes {
		tl = append(tl, presolve.BranchTake{Branch: br, Take: t})
	}
	slices.SortFunc(tl, func(x, y presolve.BranchTake) int { return x.Branch - y.Branch })
	// The key lists every queried node, repeats included; the fact lists
	// each node once.
	sorted := slices.Clone(nodes)
	slices.Sort(sorted)
	keys := make([]string, len(sorted))
	for i, n := range sorted {
		keys[i] = strconv.Itoa(n)
	}
	sorted = slices.Compact(sorted)
	return &presolve.Certificate{
		Kind: presolve.KindArchWitness,
		Fn:   g.Fn,
		Key:  "arch|" + strings.Join(keys, ","),
		Arch: &presolve.ArchFact{Nodes: sorted, Path: path, Takes: tl},
	}
}

// stlArchQueries returns the (store, load, transmitter) triples the STL
// and PSF engines query under their default configurations: each bypass
// pair with each memory node its load steers inside the load's window and
// past no draining fence.
func stlArchQueries(d *detector) [][]int {
	pairs, _ := d.bypassPairs()
	var srcs []*acfg.Node
	listed := dataflow.NewBitSet(d.g.Len())
	for _, p := range pairs {
		if !listed.Has(p.l) {
			listed.Set(p.l)
			srcs = append(srcs, d.g.Nodes[p.l])
		}
	}
	st := d.computeSteering(srcs, d.memoryNodes())
	var out [][]int
	for _, p := range pairs {
		for _, tID := range st.steers[p.l] {
			if !d.cfgReach(p.l, tID) || !d.nearFrom(p.l).win.Has(tID) || d.fenceBetween(p.s, tID) {
				continue
			}
			out = append(out, []int{p.s, p.l, tID})
		}
	}
	return out
}

// checkArchRef fails unless WitnessArch(nodes) equals the reference.
func checkArchRef(t *testing.T, label string, d *detector, ref *refArch, nodes []int) {
	t.Helper()
	got, ok := d.ps.WitnessArch(nodes)
	want := ref.witness(nodes)
	if ok != (want != nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: arch witness of %v differs from the reference:\n got %+v\nwant %+v",
			label, d.cfg.Engine, nodes, got, want)
	}
}

// TestArchWitnessMatchesReference checks WitnessArch against the per-call
// reference on every queryArch shape: the STL and PSF engines' 3-node
// triples (stlArchQueries) on every subject, and, over the litmus
// taxonomy cases, Clou-imp's 4-node and Clou-ss's 2-node queries. The
// taxonomy engines run first, so the interned paths their queries leave
// behind are shared with the enumerations that follow.
func TestArchWitnessMatchesReference(t *testing.T) {
	for _, s := range refSubjects(t) {
		for _, mk := range []func() Config{DefaultSTL, DefaultPSF} {
			d := newTestDetector(t, s, mk())
			ref := newRefArch(d.g, d.cfgReach)
			for _, nodes := range stlArchQueries(d) {
				checkArchRef(t, s.name, d, ref, nodes)
			}
		}
	}

	shapes := map[int]int{} // query length → arch certificates compared
	var cases []litmus.Case
	cases = append(cases, litmus.PSF()...)
	cases = append(cases, litmus.IMP()...)
	cases = append(cases, litmus.SS()...)
	for _, c := range cases {
		s := refSubject{"litmus/" + c.Name, compile(t, c.Source), c.Fn}
		for _, mk := range []func() Config{DefaultIMP, DefaultSS} {
			d := newTestDetector(t, s, mk())
			d.run()
			ref := newRefArch(d.g, d.cfgReach)
			for _, cert := range d.res.Certificates {
				if cert.Kind != presolve.KindArchWitness {
					continue
				}
				if want := ref.witness(cert.Arch.Nodes); !reflect.DeepEqual(cert, want) {
					t.Fatalf("%s %s: engine certificate differs from the reference:\n got %+v\nwant %+v",
						s.name, d.cfg.Engine, cert, want)
				}
				shapes[len(cert.Arch.Nodes)]++
			}
			// Every query of the engine's shape, witnessed or not: Clou-imp
			// pairs two (index, data) feed edges, Clou-ss a feeding load
			// with a store.
			loads := d.loads()
			switch d.cfg.Engine {
			case IMP:
				var feeds [][2]int
				for _, dn := range loads {
					for _, e := range d.feedsOf(dn.ID) {
						feeds = append(feeds, [2]int{e.idx, dn.ID})
					}
				}
				for _, a := range feeds {
					for _, b := range feeds {
						checkArchRef(t, s.name, d, ref, []int{a[0], a[1], b[0], b[1]})
					}
				}
			case SS:
				for _, st := range d.g.Nodes {
					if !st.IsStore() || st.Instr == nil {
						continue
					}
					for _, aID := range d.valueFeeders(st, loads) {
						checkArchRef(t, s.name, d, ref, []int{aID, st.ID})
					}
				}
			}
		}
	}
	// Clou-imp's four waypoints collapse to fewer when its index and data
	// instances coincide; the shapes that matter must each occur.
	if shapes[4] == 0 || shapes[2] == 0 {
		t.Fatalf("taxonomy engines issued no 4-node or no 2-node arch certificate: %v", shapes)
	}
}

// TestArchPathsInterned pins WitnessArch's path interning on donna's
// Montgomery ladder under Clou-stl: one replay per distinct take list,
// certificates with equal take lists sharing one Path backing array, and
// every Path equal to a fresh reference replay.
func TestArchPathsInterned(t *testing.T) {
	lib, ok := cryptolib.Lookup("donna")
	if !ok {
		t.Fatal("donna corpus entry missing")
	}
	d := newTestDetector(t, refSubject{"donna/crypto_scalarmult", compile(t, lib.Source), "crypto_scalarmult"}, DefaultSTL())
	d.run()
	ref := newRefArch(d.g, d.cfgReach)
	paths := map[string]*int{} // take list → first element of its Path
	certs := 0
	for _, c := range d.res.Certificates {
		if c.Kind != presolve.KindArchWitness {
			continue
		}
		certs++
		var kb strings.Builder
		for _, bt := range c.Arch.Takes {
			kb.WriteString(strconv.Itoa(bt.Branch))
			kb.WriteString(strconv.FormatBool(bt.Take))
			kb.WriteByte(',')
		}
		k := kb.String()
		if p, seen := paths[k]; seen && p != &c.Arch.Path[0] {
			t.Fatalf("arch certificate %s: equal take list, separate Path backing array", c.Key)
		} else if !seen {
			paths[k] = &c.Arch.Path[0]
		}
		want := ref.witness(c.Arch.Nodes)
		if want == nil || !slices.Equal(c.Arch.Path, want.Arch.Path) {
			t.Fatalf("arch certificate %s: Path differs from the reference replay", c.Key)
		}
	}
	replays := d.ps.ArchReplays()
	t.Logf("%d arch certificates, %d distinct take lists, %d replays", certs, len(paths), replays)
	if replays != len(paths) {
		t.Fatalf("%d replays for %d distinct take lists", replays, len(paths))
	}
	if certs <= replays {
		t.Fatalf("%d certificates over %d replays: nothing was shared", certs, replays)
	}
}

// refFlowGraph is buildFlowGraph with the pairwise stores × loads hop
// scan.
func refFlowGraph(g *acfg.Graph, al *alias.Analysis, cfgReach func(from, to int) bool) *flowGraph {
	f := &flowGraph{g: g, memo: map[int]reachInfo{}}
	type rawEdge struct{ src, packed int32 }
	var raw []rawEdge
	add := func(src, to int, gep bool) {
		p := int32(to) << 1
		if gep {
			p |= 1
		}
		raw = append(raw, rawEdge{src: int32(src), packed: p})
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
	var stores, loads []*acfg.Node
	for _, n := range g.Nodes {
		if n.IsStore() {
			stores = append(stores, n)
		}
		if n.IsLoad() {
			loads = append(loads, n)
		}
	}
	for _, s := range stores {
		for _, l := range loads {
			if al.MayAlias(s, l) && cfgReach(s.ID, l.ID) {
				add(s.ID, l.ID, false)
			}
		}
	}
	n := g.Len()
	f.start = make([]int32, n+1)
	for _, e := range raw {
		f.start[e.src+1]++
	}
	for i := 0; i < n; i++ {
		f.start[i+1] += f.start[i]
	}
	f.edges = make([]int32, len(raw))
	cursor := make([]int32, n)
	copy(cursor, f.start[:n])
	for _, e := range raw {
		f.edges[cursor[e.src]] = e.packed
		cursor[e.src]++
	}
	return f
}

func TestFlowHopsMatchPairwise(t *testing.T) {
	for _, s := range refSubjects(t) {
		fe, err := buildFrontend(s.m, s.fn, acfg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want := refFlowGraph(fe.g, fe.al, fe.cfgReach)
		if !slices.Equal(fe.flow.start, want.start) {
			t.Fatalf("%s: CSR start differs from the pairwise build", s.name)
		}
		if !slices.Equal(fe.flow.edges, want.edges) {
			t.Fatalf("%s: CSR edges differ from the pairwise build", s.name)
		}
	}
}

package presolve

import (
	"sync"

	"lcm/internal/acfg"
	"lcm/internal/dataflow"
)

// archArms is the flow-sensitive arch-arm analysis: for one branch b, it
// partitions the A-CFG by how architectural execution of each node
// constrains b's direction variable. The S-AEG's architectural encoding
// makes arch(n) equivalent to "control reaches n under the resolved branch
// outcomes", so every entry-to-n path classifies n:
//
//   - bypass: a path avoiding b's out-edges exists — arch(n) is consistent
//     with either take value;
//   - arm0: a path leaves b through its first successor — that path needs
//     take(b) = true;
//   - arm1: through the second successor — take(b) = false.
//
// The union over n's paths over-approximates the take values any
// satisfying assignment with arch(n)=1 can give b, which is exactly the
// soundness direction a refutation needs: a value outside the union is
// impossible, so a query forcing it is UNSAT.
type archArms struct {
	g *acfg.Graph

	// pred, when set, answers strict forward reachability (from == to is
	// the caller's concern) — installed by Facts.SetReachOracle so the
	// engine's existing transitive closure is shared instead of rebuilt.
	pred func(from, to int) bool

	mu   sync.Mutex
	dom  *domTree
	by   map[int]*branchArms
	rows []dataflow.BitSet // fallback closure when no oracle is installed
}

// branchArms answers one branch's arm and bypass queries against the
// shared dominator tree and reachability closure.
type branchArms struct {
	b    int
	succ []int // b's successor nodes; arms exist only when len >= 2
	dom  *domTree
	aa   *archArms
}

func newArchArms(g *acfg.Graph) *archArms {
	return &archArms{g: g, by: map[int]*branchArms{}}
}

// comparable reports whether m and n can lie on one entry path: one must
// reach the other. The architectural encoding asserts arch(n) ⟺ "some
// take-consistent predecessor executes" per node, and every non-branch
// node has a single successor, so the arch-true set of any model is the
// unique path the take values select — two arch nodes are always
// reachability-ordered. A node pair violating this can never be jointly
// architectural, whatever the take values.
func (aa *archArms) comparable(m, n int) bool {
	return aa.reaches(m, n) || aa.reaches(n, m)
}

// reaches reports forward reachability m →* n (reflexively).
func (aa *archArms) reaches(m, n int) bool {
	if m == n {
		return true
	}
	if p := aa.pred; p != nil {
		return p(m, n)
	}
	aa.mu.Lock()
	rows := aa.closureLocked()
	aa.mu.Unlock()
	return rows[m].Has(n)
}

// closureLocked builds (once) the full transitive closure in one pass
// over a reverse topological order — each node's row is itself plus the
// union of its successors' rows. Callers hold aa.mu; the returned rows
// are immutable afterwards.
func (aa *archArms) closureLocked() []dataflow.BitSet {
	if aa.rows != nil {
		return aa.rows
	}
	n := aa.g.Len()
	rows := make([]dataflow.BitSet, n)
	topo := aa.g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		row := dataflow.NewBitSet(n)
		row.Set(id)
		for _, s := range aa.g.Succs(id) {
			row.UnionInto(rows[s])
		}
		rows[id] = row
	}
	aa.rows = rows
	return rows
}

// of returns (computing on first use) branch b's arm view. Safe for
// concurrent callers: the underlying graph is immutable and the memo is
// lock-guarded.
func (aa *archArms) of(b int) *branchArms {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	if ba, ok := aa.by[b]; ok {
		return ba
	}
	if aa.dom == nil {
		aa.dom = newDomTree(aa.g)
	}
	ba := &branchArms{b: b, succ: aa.g.Succs(b), dom: aa.dom, aa: aa}
	aa.by[b] = ba
	return ba
}

// bypass reports whether entry reaches n without using b's out-edges —
// forward reachability from entry with b's successors cut (the cut-BFS
// reference in archarms_test.go), answered in O(1) from the
// dominator tree instead of a fresh BFS per branch: a path through b must
// continue through one of b's out-edges unless it ends at b, so the only
// nodes a cut at b removes are those b strictly dominates.
func (ba *branchArms) bypass(n int) bool {
	d := ba.dom
	if !d.reach.Has(n) {
		return false
	}
	return n == ba.b || !d.dominates(ba.b, n)
}

// archTake reports whether arch(n)=1 is consistent with take(b)=v: some
// entry-to-n path either avoids b or leaves b down the arm v selects
// (take=true resolves to the first successor).
func (ba *branchArms) archTake(n int, v bool) bool {
	if ba.bypass(n) {
		return true
	}
	if len(ba.succ) < 2 {
		return false
	}
	if v {
		return ba.aa.reaches(ba.succ[0], n)
	}
	return ba.aa.reaches(ba.succ[1], n)
}

// domTree is the entry-rooted dominator tree of the A-CFG with DFS
// intervals for O(1) dominance tests. The A-CFG is a DAG (back edges are
// cut during construction), so one pass over a topological order computes
// every idom exactly — each node's idom is the nearest common ancestor of
// its already-finalized predecessors.
type domTree struct {
	reach     dataflow.BitSet // entry-reachable nodes
	idom      []int32         // parent in the dominator tree; entry points at itself
	pre, post []int32         // DFS intervals over the dominator tree
}

func newDomTree(g *acfg.Graph) *domTree {
	n := g.Len()
	d := &domTree{
		reach: dataflow.NewBitSet(n),
		idom:  make([]int32, n),
		pre:   make([]int32, n),
		post:  make([]int32, n),
	}
	order := g.Topo()
	ord := make([]int32, n) // topological position, orients the NCA walk
	for i, id := range order {
		ord[id] = int32(i)
	}
	d.reach.Set(g.Entry)
	d.idom[g.Entry] = int32(g.Entry)
	nca := func(a, b int32) int32 {
		for a != b {
			for ord[a] > ord[b] {
				a = d.idom[a]
			}
			for ord[b] > ord[a] {
				b = d.idom[b]
			}
		}
		return a
	}
	for _, id := range order {
		if id == g.Entry {
			continue
		}
		cur := int32(-1)
		for _, p := range g.Preds(id) {
			if !d.reach.Has(p) {
				continue
			}
			if cur < 0 {
				cur = int32(p)
			} else {
				cur = nca(cur, int32(p))
			}
		}
		if cur < 0 {
			continue // entry does not reach id
		}
		d.reach.Set(id)
		d.idom[id] = cur
	}
	// DFS intervals over the tree. Children are collected in node-id order;
	// any order yields valid intervals.
	kids := make([][]int32, n)
	for id := 0; id < n; id++ {
		if id != g.Entry && d.reach.Has(id) {
			p := d.idom[id]
			kids[p] = append(kids[p], int32(id))
		}
	}
	clock := int32(0)
	var dfs func(int32)
	dfs = func(u int32) {
		d.pre[u] = clock
		clock++
		for _, k := range kids[u] {
			dfs(k)
		}
		d.post[u] = clock
		clock++
	}
	dfs(int32(g.Entry))
	return d
}

// dominates reports whether b dominates n (non-strict): every entry path
// to n passes through b. False when either node is entry-unreachable.
func (d *domTree) dominates(b, n int) bool {
	if !d.reach.Has(b) || !d.reach.Has(n) {
		return false
	}
	return d.pre[b] <= d.pre[n] && d.post[n] <= d.post[b]
}

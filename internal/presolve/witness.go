package presolve

import (
	"cmp"
	"encoding/binary"
	"slices"

	"lcm/internal/acfg"
	"lcm/internal/dataflow"
)

// The witness rule is the dual of RefuteQuery: instead of proving a query
// UNSAT it constructs an explicit satisfying assignment of the S-AEG
// encoding and lets the engine record the finding without a solver call.
// The encoding admits a closed-form model: the take variables select a
// unique maximal architectural path from entry (encodeArch asserts
// arch(n) ⟺ a take-consistent predecessor executes, and non-branch nodes
// have a single successor), and every other constraint is an implication
// that an all-false assignment of the remaining misspec/transin variables
// satisfies vacuously. A witness therefore consists of
//
//   - a take assignment whose selected path visits the query branch b,
//   - misspec(b) = 1 (arch(b) holds — b is on the path), and
//   - a transient fetch set: the least fixpoint of the window's data-
//     feasibility clause over nodes fetchable down the arm the take value
//     mispredicts, seeded by definitions on the architectural path.
//
// If the fetch set covers the query's Trans nodes (and path ∪ fetch its
// Exec nodes, path its Arch nodes), the assignment satisfies every
// asserted clause, so the query is SAT. Like refutations, witnesses are
// untrusted: -audit-presolve replays each one through the solver and
// asserts it answers Sat.

// BranchTake is one branch's direction in a witness's take assignment.
type BranchTake struct {
	Branch int  `json:"branch"`
	Take   bool `json:"take"`
}

// satWitness is the canonical model fragment for one (branch, take) pair:
// the take-selected architectural path and the transient-fetch fixpoint.
type satWitness struct {
	ok        bool
	path      []int // in path order, entry first
	onPath    []bool
	takes     []BranchTake // sorted by branch
	fetch     []bool
	fetchList []int // indices of fetch, ascending (certificate form)
}

type witKey struct {
	b int
	v bool
}

// witnessFor returns (computing on first use) the canonical witness of
// misspeculating branch b with take(b)=v.
func (a *Analysis) witnessFor(b int, v bool) *satWitness {
	k := witKey{b, v}
	if w, ok := a.wit[k]; ok {
		return w
	}
	w := a.buildWitness(b, v)
	a.wit[k] = w
	return w
}

func (a *Analysis) buildWitness(b int, v bool) *satWitness {
	g := a.f.G
	// Entry-to-b prefix: any BFS path is take-realizable, because each hop
	// is a successor edge and a simple path resolves every branch on it at
	// most once.
	path := a.entryPath(b)
	if path == nil {
		return &satWitness{} // entry cannot reach b: refutation territory
	}

	sc := a.beginTakes()
	onPath := make([]bool, g.Len())
	for i, n := range path {
		onPath[n] = true
		if i+1 < len(path) {
			if t, ok := takeFor(g, n, path[i+1]); ok {
				a.setTake(n, t)
			}
		}
	}
	a.setTake(b, v)

	// Continue past b along the take-selected successors until the path
	// closes on itself or exits: the Iff semantics of encodeArch force the
	// architectural set to be exactly such a maximal path, so stopping
	// early would leave a node whose selected successor is un-executed.
	for cur := b; ; {
		next, ok := a.selectedSucc(cur)
		if !ok || onPath[next] {
			break
		}
		onPath[next] = true
		path = append(path, next)
		cur = next
	}

	// Transient fetch set: least fixpoint of the data-feasibility clause
	// over window nodes fetchable down the mispredicted arm (take=true
	// resolves architecturally to the first successor, so the transient
	// fetch runs down the second).
	fetch := make([]bool, g.Len())
	var elig []int
	a.eachWindowNode(b, func(id int, arms [2]bool) {
		if (v && arms[1]) || (!v && arms[0]) {
			elig = append(elig, id)
		}
	})
	// The least fixpoint is order-independent; sorting keeps the sweep
	// (and the round count) reproducible across map iteration orders.
	slices.Sort(elig)
	for changed := true; changed; {
		changed = false
		for _, id := range elig {
			if fetch[id] {
				continue
			}
			fed := true
			for _, grp := range g.Nodes[id].ArgDefs {
				if len(grp) == 0 {
					continue
				}
				grpFed := false
				for _, d := range grp {
					if onPath[d] || fetch[d] {
						grpFed = true
						break
					}
				}
				if !grpFed {
					fed = false
					break
				}
			}
			if fed {
				fetch[id] = true
				changed = true
			}
		}
	}

	var fl []int
	for n, f := range fetch {
		if f {
			fl = append(fl, n)
		}
	}
	return &satWitness{ok: true, path: path, onPath: onPath, takes: sc.takeList(), fetch: fetch, fetchList: fl}
}

// takeFor reports the take value that routes branch p to successor q,
// sharing the encoder's rule: take=true selects the first successor. The
// second result is false when the edge is unconditional (p is not a
// proper branch, or both arms coincide).
func takeFor(g *acfg.Graph, p, q int) (bool, bool) {
	succ := g.Succs(p)
	if len(succ) < 2 || succ[0] == succ[1] {
		return false, false
	}
	return succ[0] == q, true
}

// WitnessQuery decides whether q is statically SAT by explicit model
// construction. On success the certificate records the take assignment,
// architectural path, and transient fetch set; audit mode replays the
// query asserting the solver also answers Sat.
func (a *Analysis) WitnessQuery(q Query) (*Certificate, bool) {
	return a.witnessKeyed(queryKey(q), q)
}

// witnessKeyed is WitnessQuery with the key precomputed by the caller.
func (a *Analysis) witnessKeyed(key string, q Query) (*Certificate, bool) {
	if c, ok := a.wmemo[key]; ok {
		return c, c != nil
	}
	for _, v := range []bool{false, true} {
		w := a.witnessFor(q.Branch, v)
		if !w.ok || !a.covers(w, q) {
			continue
		}
		// Path/Takes/Fetch alias the memoized witness: it is immutable once
		// built, certificates are read-only downstream, and copying them per
		// distinct query dominated this function's profile.
		c := &Certificate{
			Kind: KindWitness,
			Fn:   a.f.G.Fn,
			Key:  key,
			Witness: &WitnessFact{
				Branch: q.Branch,
				Take:   v,
				Trans:  sortedCopy(q.Trans),
				Exec:   sortedCopy(q.Exec),
				Arch:   sortedCopy(q.Arch),
				Path:   w.path,
				Takes:  w.takes,
				Fetch:  w.fetchList,
			},
		}
		a.wmemo[key] = c
		return c, true
	}
	a.wmemo[key] = nil
	return nil, false
}

// WitnessArch decides branch-free architectural queries — the STL
// engine's Arch(s) ∧ Arch(l) ∧ Exec(t) shape — by the same model
// construction without any transient machinery: all misspec and transin
// variables are false, and the take variables route one path through
// every queried node. The A-CFG is a DAG (back edges are cut during
// construction), so the per-segment take assignments can never conflict:
// two segments sharing an interior node would close a cycle. The
// certificate records the node set, the path, and the take assignment.
func (a *Analysis) WitnessArch(nodes []int) (*Certificate, bool) {
	key := archKey(nodes)
	if c, ok := a.amemo[key]; ok {
		return c, c != nil
	}
	c := a.buildArchWitness(key, nodes)
	a.amemo[key] = c
	return c, c != nil
}

func (a *Analysis) buildArchWitness(key string, nodes []int) *Certificate {
	g := a.f.G
	// Order the waypoints by reachability. Reachability on a DAG is a
	// partial order; if some pair is incomparable no single path covers
	// both and the query is left to the solver (it is in fact UNSAT, but
	// the engines pre-gate chained candidates so the case is dead).
	ord := dedupSorted(nodes)
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && a.f.arms.reaches(ord[j], ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for i := 1; i < len(ord); i++ {
		if ord[i-1] != ord[i] && !a.f.arms.reaches(ord[i-1], ord[i]) {
			return nil
		}
	}

	// Take assignments along entry → ord[0] → … → ord[k]; conflicts fail
	// the witness (impossible on a DAG, but checked rather than trusted).
	// The entry prefix comes from the shared entry BFS tree; only the
	// short waypoint-to-waypoint segments search.
	a.beginTakes()
	cur := g.Entry
	for _, w := range ord {
		if w == cur {
			continue
		}
		if cur == g.Entry {
			prefix := a.entryTakes(w)
			if prefix == nil {
				return nil
			}
			for _, bt := range prefix {
				if !a.setTake(bt.Branch, bt.Take) {
					return nil
				}
			}
		} else if !a.segmentTakes(cur, w) {
			return nil
		}
		cur = w
	}

	// Replay the take assignment from entry: the selected path must visit
	// every waypoint. The replay is a pure function of the assignment, so
	// queries that route identically share one interned path.
	ap := a.replayArch()
	for _, w := range ord {
		if !ap.member.Has(w) {
			return nil
		}
	}
	// Path/Takes alias the interned replay: it is immutable once built,
	// certificates are read-only downstream, and a per-certificate copy of
	// a path that runs entry to exit dominated this function's profile.
	return &Certificate{
		Kind: KindArchWitness,
		Fn:   g.Fn,
		Key:  key,
		Arch: &ArchFact{
			Nodes: dedupSorted(nodes),
			Path:  ap.path,
			Takes: ap.takes,
		},
	}
}

// archPath is one interned replay: the take-selected maximal path from
// entry, the full take assignment the replay completes (it assigns
// take=true to every unassigned proper branch it crosses), and the
// path's node set.
type archPath struct {
	path   []int
	takes  []BranchTake
	member dataflow.BitSet
}

// replayArch returns the path the current take assignment selects from
// entry. The replay consults only false takes — an assigned true take
// and an unassigned branch both route to the first successor — so the
// path is a function of the false takes alone and is interned on their
// sorted branch IDs. The completed assignment is then those false takes
// plus take=true at every other proper branch on the path, provided each
// assigned true take sits at a proper branch on the path (where the
// replay would have assigned it anyway); an assignment with a true take
// elsewhere is replayed without interning.
func (a *Analysis) replayArch() *archPath {
	sc := &a.takes
	falses := sc.falses[:0]
	for _, n := range sc.set {
		if !sc.take[n] {
			falses = append(falses, n)
		}
	}
	slices.Sort(falses)
	key := sc.key[:0]
	for _, n := range falses {
		key = binary.AppendUvarint(key, uint64(n))
	}
	sc.falses, sc.key = falses, key
	if ap, ok := a.paths[string(key)]; ok && a.truesOnPath(ap) {
		return ap
	}

	// The path extends maximally so the arch Iff closes.
	a.replays++
	g := a.f.G
	path := sc.path[:0]
	member := dataflow.NewBitSet(g.Len())
	for n := g.Entry; ; {
		path = append(path, n)
		member.Set(n)
		next, ok := a.selectedSucc(n)
		if !ok || member.Has(next) {
			break
		}
		n = next
	}
	sc.path = path
	ap := &archPath{path: slices.Clone(path), takes: sc.takeList(), member: member}
	if a.truesOnPath(ap) {
		if a.paths == nil {
			a.paths = map[string]*archPath{}
		}
		a.paths[string(key)] = ap
	}
	return ap
}

// truesOnPath reports whether every true take of the current assignment
// is at a proper branch on ap's path.
func (a *Analysis) truesOnPath(ap *archPath) bool {
	sc := &a.takes
	for _, n := range sc.set {
		if sc.take[n] && (sc.alt[n] < 0 || !ap.member.Has(int(n))) {
			return false
		}
	}
	return true
}

// ArchReplays reports how many architectural paths WitnessArch has
// replayed: one per distinct set of false takes its queries route by.
func (a *Analysis) ArchReplays() int { return a.replays }

// takeScratch is the take assignment under construction, as
// epoch-stamped tables over node IDs: a witness starts a new epoch
// instead of clearing (or allocating) a graph-sized table or a map.
type takeScratch struct {
	stamp []uint32 // take[n] is assigned iff stamp[n] == epoch
	take  []bool
	epoch uint32
	set   []int32 // branches assigned this epoch, in assignment order
	path  []int   // the replayed path, copied out per replay

	// replayArch's interning key: the false takes' branches, sorted and
	// varint-encoded.
	falses []int32
	key    []byte

	// The routing table replays walk: next[n] is n's first successor (-1
	// at an exit), alt[n] its second when n is a proper two-way branch
	// (-1 otherwise) — so a replay step reads two slices instead of the
	// node and its successor list.
	next, alt []int32
}

// beginTakes starts an empty take assignment.
func (a *Analysis) beginTakes() *takeScratch {
	sc := &a.takes
	if g := a.f.G; len(sc.stamp) < g.Len() {
		n := g.Len()
		sc.stamp = make([]uint32, n)
		sc.take = make([]bool, n)
		sc.next = make([]int32, n)
		sc.alt = make([]int32, n)
		for id, node := range g.Nodes {
			succ := g.Succs(id)
			sc.next[id], sc.alt[id] = -1, -1
			if len(succ) > 0 {
				sc.next[id] = int32(succ[0])
			}
			if node.IsBranch() && len(succ) >= 2 && succ[0] != succ[1] {
				sc.alt[id] = int32(succ[1])
			}
		}
	}
	sc.epoch++
	if sc.epoch == 0 { // wraparound: drop every stale mark
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.set = sc.set[:0]
	return sc
}

// setTake assigns take(n) = t, reporting false on a conflicting earlier
// assignment.
func (a *Analysis) setTake(n int, t bool) bool {
	sc := &a.takes
	if sc.stamp[n] == sc.epoch {
		return sc.take[n] == t
	}
	sc.stamp[n], sc.take[n] = sc.epoch, t
	sc.set = append(sc.set, int32(n))
	return true
}

// selectedSucc returns the successor the current take assignment routes
// n to, assigning take(n) = true to a proper branch not yet assigned.
// ok is false at an exit.
func (a *Analysis) selectedSucc(n int) (next int, ok bool) {
	sc := &a.takes
	if sc.next[n] < 0 {
		return 0, false
	}
	if alt := sc.alt[n]; alt >= 0 {
		if sc.stamp[n] != sc.epoch {
			a.setTake(n, true)
		} else if !sc.take[n] {
			return int(alt), true
		}
	}
	return int(sc.next[n]), true
}

// takeList returns the epoch's take assignment sorted by branch ID. The
// slice is non-nil even when empty: certificates have always carried it
// that way, and the reference-equality tests compare with DeepEqual.
func (sc *takeScratch) takeList() []BranchTake {
	tl := make([]BranchTake, len(sc.set))
	for i, n := range sc.set {
		tl[i] = BranchTake{Branch: int(n), Take: sc.take[n]}
	}
	slices.SortFunc(tl, func(x, y BranchTake) int { return cmp.Compare(x.Branch, y.Branch) })
	return tl
}

// entryTree returns (building on first use) the parent links of one full
// breadth-first search from entry: entry is its own parent and nodes
// entry cannot reach have -1. A pruned bfsTree(entry, w) — one that
// skips nodes ordered after w topologically — returns exactly w's parent
// chain in this tree: a pruned node can only discover nodes ordered
// after itself, which are pruned too, so the pruned search is the full
// search's queue with the pruned nodes deleted and every kept node gets
// the same parent. One tree therefore serves every entry→w prefix.
func (a *Analysis) entryTree() []int32 {
	if a.tree != nil {
		return a.tree
	}
	g := a.f.G
	parent := make([]int32, g.Len())
	for i := range parent {
		parent[i] = -1
	}
	parent[g.Entry] = int32(g.Entry)
	queue := make([]int32, 1, g.Len())
	queue[0] = int32(g.Entry)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, s := range g.Succs(int(n)) {
			if parent[s] < 0 {
				parent[s] = n
				queue = append(queue, int32(s))
			}
		}
	}
	a.tree = parent
	return parent
}

// entryPath returns the entry BFS tree's path entry → w, entry first
// (nil when entry cannot reach w).
func (a *Analysis) entryPath(w int) []int {
	tree := a.entryTree()
	if tree[w] < 0 {
		return nil
	}
	var path []int
	for n := w; ; n = int(tree[n]) {
		path = append(path, n)
		if n == a.f.G.Entry {
			break
		}
	}
	slices.Reverse(path)
	return path
}

// entryTakes returns (memoized per waypoint) the take assignment along
// the entry tree's path to w, nil when entry cannot reach w. A reachable
// w with no branch on its prefix gets a non-nil empty list.
func (a *Analysis) entryTakes(w int) []BranchTake {
	tree := a.entryTree()
	if tree[w] < 0 {
		return nil
	}
	if a.prefix == nil {
		a.prefix = make([][]BranchTake, a.f.G.Len())
	}
	if p := a.prefix[w]; p != nil {
		return p
	}
	p := []BranchTake{}
	for n := w; n != a.f.G.Entry; n = int(tree[n]) {
		if t, ok := takeFor(a.f.G, int(tree[n]), n); ok {
			p = append(p, BranchTake{Branch: int(tree[n]), Take: t})
		}
	}
	// Path order, entry first: node IDs mostly ascend along a path, so
	// the take list a witness sorts starts out nearly sorted.
	slices.Reverse(p)
	a.prefix[w] = p
	return p
}

// segmentTakes assigns the takes along a shortest path src → dst,
// reporting false when dst is unreachable or a take conflicts with an
// earlier assignment.
func (a *Analysis) segmentTakes(src, dst int) bool {
	parent, ok := a.bfsTree(src, dst)
	if !ok {
		return false
	}
	for n := dst; n != src; n = int(parent[n]) {
		if t, ok := takeFor(a.f.G, int(parent[n]), n); ok && !a.setTake(int(parent[n]), t) {
			return false
		}
	}
	return true
}

// bfsTree runs a breadth-first search from src until it discovers dst,
// returning the parent links (valid until the next call) and whether dst
// was reached; dst's parent chain is a shortest path, deterministic in
// queue order. The visit marks are epoch-stamped scratch on the Analysis
// (which is single-owner, per the type comment), so repeated calls clear
// nothing.
func (a *Analysis) bfsTree(src, dst int) ([]int32, bool) {
	g := a.f.G
	sc := &a.bfs
	if len(sc.parent) < g.Len() {
		sc.parent = make([]int32, g.Len())
		sc.stamp = make([]uint32, g.Len())
		// Topological positions prune the search: in a DAG, a node
		// ordered after dst cannot reach it, and dropping such nodes
		// cannot perturb the parent chain of any node that can. The
		// returned path — and so every certificate — is unchanged.
		sc.ord = make([]int32, g.Len())
		for i, id := range g.Topo() {
			sc.ord[id] = int32(i)
		}
	}
	sc.epoch++
	if sc.epoch == 0 { // stamp wraparound: drop every stale mark
		clear(sc.stamp)
		sc.epoch = 1
	}
	ep := sc.epoch
	bound := sc.ord[dst]
	sc.stamp[src], sc.parent[src] = ep, int32(src)
	queue := append(sc.queue[:0], int32(src))
	for head := 0; head < len(queue) && sc.stamp[dst] != ep; head++ {
		n := int(queue[head])
		for _, s := range g.Succs(n) {
			if sc.stamp[s] != ep && sc.ord[s] <= bound {
				sc.stamp[s], sc.parent[s] = ep, int32(n)
				queue = append(queue, int32(s))
			}
		}
	}
	sc.queue = queue
	return sc.parent, sc.stamp[dst] == ep
}

// dedupSorted sorts and deduplicates a node list.
func dedupSorted(ns []int) []int {
	s := sortedCopy(ns)
	out := s[:0]
	for i, n := range s {
		if i == 0 || n != s[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// covers reports whether witness w satisfies every literal of query q.
func (a *Analysis) covers(w *satWitness, q Query) bool {
	for _, t := range q.Trans {
		if !w.fetch[t] {
			return false
		}
	}
	for _, e := range q.Exec {
		if !w.fetch[e] && !w.onPath[e] {
			return false
		}
	}
	for _, n := range q.Arch {
		if !w.onPath[n] {
			return false
		}
	}
	return true
}

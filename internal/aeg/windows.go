package aeg

import (
	"slices"

	"lcm/internal/acfg"
	"lcm/internal/dataflow"
	"lcm/internal/smt"
)

// armSet records down which arms of its branch a window node is
// fetchable: bit 0 for the first successor, bit 1 for the second.
type armSet uint8

const (
	armFirst  armSet = 1 << iota // fetchable down the first successor
	armSecond                    // fetchable down the second successor
)

func (s armSet) pair() [2]bool { return [2]bool{s&armFirst != 0, s&armSecond != 0} }

// window is one branch's speculation window in dense form: the nodes
// fetchable down either arm within the speculation bound without crossing
// an lfence (§6.1).
type window struct {
	bits    dataflow.BitSet // membership, indexed by node ID
	members []int32         // the member node IDs, ascending
	arms    []armSet        // parallel to members
	dist    []int32         // parallel to members: minimum fetch distance (an arm's first node is at 1)
	// The solver half, filled when the window is first encoded: misspec
	// is the branch's mis-speculation variable, trans[i] the variable
	// "members[i] is transient in this window".
	misspec *smt.Expr
	trans   []*smt.Expr
}

// index returns the position of node n in w.members.
func (w *window) index(n int) (int, bool) {
	if !w.bits.Has(n) {
		return 0, false
	}
	return slices.BinarySearch(w.members, int32(n))
}

// windows holds every branch's window, indexed by branch node ID.
type windows struct {
	byNode   []*window // nil for nodes that open no window
	branches []int     // the branches with a window, ascending
}

// of returns branch b's window, or nil.
func (ws *windows) of(b int) *window {
	if b < 0 || b >= len(ws.byNode) {
		return nil
	}
	return ws.byNode[b]
}

// buildWindows derives the window of every two-armed branch of g: a
// breadth-first walk down each arm, at most bound steps deep, stopping at
// lfence nodes. Scratch arrays are stamped per arm and per branch, so the
// whole build allocates only the windows themselves.
func buildWindows(g *acfg.Graph, bound int) *windows {
	n := g.Len()
	ws := &windows{byNode: make([]*window, n)}
	var (
		seen              = make([]uint32, n) // arm stamp: visited in the current arm walk
		owner             = make([]uint32, n) // branch stamp: armOf/distOf valid for the current branch
		armOf             = make([]armSet, n)
		distOf            = make([]int32, n)
		touched           []int32
		frontier, next    []int
		armStamp, brStamp uint32
	)
	for _, b := range g.Nodes {
		if !b.IsBranch() {
			continue
		}
		succ := g.Succs(b.ID)
		if len(succ) < 2 {
			continue
		}
		brStamp++
		touched = touched[:0]
		for arm, start := range succ[:2] {
			if isLfence(g.Nodes[start]) {
				continue
			}
			armStamp++
			bit := armFirst << arm
			visit := func(x int, d int32) {
				seen[x] = armStamp
				if owner[x] != brStamp {
					owner[x], armOf[x], distOf[x] = brStamp, 0, d
					touched = append(touched, int32(x))
				}
				armOf[x] |= bit
				distOf[x] = min(distOf[x], d)
			}
			visit(start, 1)
			frontier = append(frontier[:0], start)
			for depth := int32(1); int(depth) <= bound && len(frontier) > 0; depth++ {
				next = next[:0]
				for _, x := range frontier {
					for _, s := range g.Succs(x) {
						if seen[s] == armStamp || isLfence(g.Nodes[s]) {
							continue // visited, or a speculation barrier
						}
						visit(s, depth+1)
						next = append(next, s)
					}
				}
				frontier, next = next, frontier
			}
		}
		slices.Sort(touched)
		w := &window{
			bits:    dataflow.NewBitSet(n),
			members: slices.Clone(touched),
			arms:    make([]armSet, len(touched)),
			dist:    make([]int32, len(touched)),
		}
		for i, x := range touched {
			w.bits.Set(int(x))
			w.arms[i], w.dist[i] = armOf[x], distOf[x]
		}
		ws.byNode[b.ID] = w
		ws.branches = append(ws.branches, b.ID)
	}
	return ws
}

func isLfence(n *acfg.Node) bool { return n.IsFence() && n.Instr.Sub == "lfence" }

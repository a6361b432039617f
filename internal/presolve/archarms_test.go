package presolve

// Differential check of the dominator-based bypass fast path against the
// reference cut-BFS it replaced: for every node of every corpus graph,
// bypass(b, n) must equal membership in reach(entry, cut=b). The litmus
// suite exercises small branchy shapes; the cryptolib sweep covers the
// large inlined graphs where the identity actually pays off.

import (
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/dataflow"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

func buildGraph(t *testing.T, src, fn string) *acfg.Graph {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("acfg: %v", err)
	}
	return g
}

// cutReach computes forward reachability from start, never expanding the
// successors of cut (-1 for none). The cut node itself stays reachable:
// a path may end at it without resolving its branch.
func cutReach(g *acfg.Graph, start, cut int) dataflow.BitSet {
	out := dataflow.NewBitSet(g.Len())
	out.Set(start)
	frontier := []int{start}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if n == cut {
			continue
		}
		for _, s := range g.Succs(n) {
			if !out.Has(s) {
				out.Set(s)
				frontier = append(frontier, s)
			}
		}
	}
	return out
}

// checkBypass compares every branch's dominator-derived bypass set and
// closure-derived archTake verdicts with the cut-BFS reference over all
// nodes.
func checkBypass(t *testing.T, g *acfg.Graph) {
	t.Helper()
	aa := newArchArms(g)
	for b := 0; b < g.Len(); b++ {
		succ := g.Succs(b)
		if len(succ) < 2 {
			continue
		}
		ref := cutReach(g, g.Entry, b)
		arm0, arm1 := cutReach(g, succ[0], -1), cutReach(g, succ[1], -1)
		ba := aa.of(b)
		for n := 0; n < g.Len(); n++ {
			if got, want := ba.bypass(n), ref.Has(n); got != want {
				t.Fatalf("bypass(b=%d, n=%d) = %v, cut-BFS says %v", b, n, got, want)
			}
			if got, want := ba.archTake(n, true), ref.Has(n) || arm0.Has(n); got != want {
				t.Fatalf("archTake(b=%d, n=%d, true) = %v, BFS reference says %v", b, n, got, want)
			}
			if got, want := ba.archTake(n, false), ref.Has(n) || arm1.Has(n); got != want {
				t.Fatalf("archTake(b=%d, n=%d, false) = %v, BFS reference says %v", b, n, got, want)
			}
		}
	}
}

func TestBypassMatchesCutReachLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		c := c
		t.Run(c.Suite+"/"+c.Name, func(t *testing.T) {
			checkBypass(t, buildGraph(t, c.Source, c.Fn))
		})
	}
}

func TestBypassMatchesCutReachCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		for _, fn := range lib.PublicFuncs {
			lib, fn := lib, fn
			t.Run(lib.Name+"/"+fn, func(t *testing.T) {
				g := buildGraph(t, lib.Source, fn)
				if g.Len() > 3000 {
					// Full n^2 sweeps over donna-sized graphs take minutes;
					// the structural identity is graph-size independent.
					t.Skip("graph too large for the exhaustive sweep")
				}
				checkBypass(t, g)
			})
		}
	}
}

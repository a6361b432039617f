package aeg

import (
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

// refWindowFrom is the reference per-arm window walk: nodes reachable
// from start within bound steps without entering an lfence, each mapped
// to its BFS depth (start at 0), with a map as the visited set.
func refWindowFrom(g *acfg.Graph, start, bound int) map[int]int {
	out := map[int]int{}
	if isLfence(g.Nodes[start]) {
		return out
	}
	out[start] = 0
	frontier := []int{start}
	for depth := 0; depth < bound && len(frontier) > 0; depth++ {
		var next []int
		for _, n := range frontier {
			for _, s := range g.Succs(n) {
				if _, seen := out[s]; seen {
					continue
				}
				if isLfence(g.Nodes[s]) {
					continue
				}
				out[s] = depth + 1
				next = append(next, s)
			}
		}
		frontier = next
	}
	return out
}

// refWindows derives every branch's window as nested maps: per member,
// its arm flags and its minimum fetch distance (depth + 1).
func refWindows(g *acfg.Graph, bound int) (map[int]map[int][2]bool, map[int]map[int]int) {
	wins, dists := map[int]map[int][2]bool{}, map[int]map[int]int{}
	for _, b := range g.Nodes {
		succ := g.Succs(b.ID)
		if !b.IsBranch() || len(succ) < 2 {
			continue
		}
		win, dist := map[int][2]bool{}, map[int]int{}
		for arm := 0; arm < 2; arm++ {
			for n, d := range refWindowFrom(g, succ[arm], bound) {
				w := win[n]
				w[arm] = true
				win[n] = w
				if old, ok := dist[n]; !ok || d+1 < old {
					dist[n] = d + 1
				}
			}
		}
		wins[b.ID], dists[b.ID] = win, dist
	}
	return wins, dists
}

// checkWindowsMatch compares a's dense windows with the reference on every
// (branch, node) pair and on the enumeration order.
func checkWindowsMatch(t *testing.T, name string, a *AEG) {
	t.Helper()
	wins, dists := refWindows(a.G, min(a.Opts.ROB, a.Opts.Wsize))
	if got := a.Branches(); len(got) != len(wins) {
		t.Fatalf("%s: %d branches, reference %d", name, len(got), len(wins))
	}
	for _, b := range a.Branches() {
		win, ok := wins[b]
		if !ok {
			t.Fatalf("%s: branch %d has no reference window", name, b)
		}
		for _, n := range a.G.Nodes {
			arms, dist, ok := a.WindowInfo(b, n.ID)
			rarms, rok := win[n.ID]
			if ok != rok || arms != rarms || (ok && dist != dists[b][n.ID]) || a.InWindow(b, n.ID) != rok {
				t.Fatalf("%s: branch %d node %d: (%v %d %v), reference (%v %d %v)",
					name, b, n.ID, arms, dist, ok, rarms, dists[b][n.ID], rok)
			}
		}
		prev, count := -1, 0
		a.ForEachWindowNode(b, func(n int, arms [2]bool) {
			if n <= prev || arms != win[n] {
				t.Fatalf("%s: branch %d: enumeration visits %d %v after %d", name, b, n, arms, prev)
			}
			prev = n
			count++
		})
		if count != len(win) {
			t.Fatalf("%s: branch %d: enumerated %d members, reference %d", name, b, count, len(win))
		}
	}
}

// TestDenseWindowsMatchReference checks the dense windows against the
// map-based reference on every litmus and crypto graph, under the default
// bound and a tight one that cuts windows short.
func TestDenseWindowsMatchReference(t *testing.T) {
	type subject struct{ name, src, fn string }
	var subjects []subject
	for _, c := range litmus.All() {
		subjects = append(subjects, subject{c.Name, c.Source, c.Fn})
	}
	for _, l := range cryptolib.All() {
		for _, fn := range l.PublicFuncs {
			subjects = append(subjects, subject{l.Name + "/" + fn, l.Source, fn})
		}
	}
	for _, s := range subjects {
		f, err := minic.Parse(s.src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := lower.Module(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := acfg.Build(m, s.fn, acfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		al := alias.Analyze(g)
		for _, opts := range []Options{{}, {ROB: 3, Wsize: 5}} {
			checkWindowsMatch(t, s.name, Build(g, al, opts))
		}
	}
}

package acfg_test

// Differential check of the indexed call splicer against the reference
// splicer (splice_ref_test.go) over every corpus the repository ships:
// node IDs, kinds, instructions, contexts, operand def lists and adjacency
// order must all agree, since every downstream analysis and report walks
// them in order.

import (
	"fmt"
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
)

func compileModule(t *testing.T, label, src string) *ir.Module {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("%s: lower: %v", label, err)
	}
	return m
}

// diffGraphs reports the first difference between two A-CFGs.
func diffGraphs(got, want *acfg.Graph) error {
	if got.Len() != want.Len() || got.Entry != want.Entry || got.Exit != want.Exit {
		return fmt.Errorf("shape (len %d entry %d exit %d), reference (len %d entry %d exit %d)",
			got.Len(), got.Entry, got.Exit, want.Len(), want.Entry, want.Exit)
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.Ctx != w.Ctx {
			return fmt.Errorf("node %d: (id %d kind %d ctx %q), reference (id %d kind %d ctx %q)",
				i, g.ID, g.Kind, g.Ctx, w.ID, w.Kind, w.Ctx)
		}
		if (g.Instr == nil) != (w.Instr == nil) ||
			g.Instr != nil && (g.Instr.Op != w.Instr.Op || g.Instr.Sub != w.Instr.Sub) {
			return fmt.Errorf("node %d: instr %v, reference %v", i, g.Instr, w.Instr)
		}
		if len(g.ArgDefs) != len(w.ArgDefs) {
			return fmt.Errorf("node %d: %d operand lists, reference %d", i, len(g.ArgDefs), len(w.ArgDefs))
		}
		for op := range g.ArgDefs {
			if !slices.Equal(g.ArgDefs[op], w.ArgDefs[op]) {
				return fmt.Errorf("node %d operand %d: defs %v, reference %v", i, op, g.ArgDefs[op], w.ArgDefs[op])
			}
		}
		if !slices.Equal(got.Succs(i), want.Succs(i)) {
			return fmt.Errorf("node %d: succs %v, reference %v", i, got.Succs(i), want.Succs(i))
		}
		if !slices.Equal(got.Preds(i), want.Preds(i)) {
			return fmt.Errorf("node %d: preds %v, reference %v", i, got.Preds(i), want.Preds(i))
		}
	}
	return nil
}

// diffModule builds every defined function of m both ways.
func diffModule(t *testing.T, label string, m *ir.Module) int {
	t.Helper()
	built := 0
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		got, gotErr := acfg.Build(m, f.Nm, acfg.Options{})
		want, wantErr := acfg.RefBuild(m, f.Nm, acfg.Options{})
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s/%s: error %v, reference %v", label, f.Nm, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s/%s: error %q, reference %q", label, f.Nm, gotErr, wantErr)
			}
			continue
		}
		if err := diffGraphs(got, want); err != nil {
			t.Fatalf("%s/%s: %v", label, f.Nm, err)
		}
		built++
	}
	return built
}

func TestBuildMatchesSpliceReference(t *testing.T) {
	built := 0
	for _, c := range litmus.All() {
		built += diffModule(t, "litmus/"+c.Name, compileModule(t, c.Name, c.Source))
	}
	for _, lib := range cryptolib.All() {
		built += diffModule(t, "cryptolib/"+lib.Name, compileModule(t, lib.Name, lib.Source))
	}
	progs, err := progen.GenerateN(1, 200)
	if err != nil {
		t.Fatalf("progen: %v", err)
	}
	for _, p := range progs {
		label := fmt.Sprintf("progen/%d", p.Index)
		built += diffModule(t, label, compileModule(t, label, p.Src))
	}
	if built == 0 {
		t.Fatal("no function built")
	}
}

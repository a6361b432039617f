package detect

import (
	"testing"

	"lcm/internal/cryptolib"
)

// TestPresolveDecidedBuildsNoSolver: when the pre-solver decides every
// query of a function, the S-AEG's solver half is never built — no
// Tseitin gate is requested and no clause is propagated.
func TestPresolveDecidedBuildsNoSolver(t *testing.T) {
	lib, ok := cryptolib.Lookup("donna")
	if !ok {
		t.Fatal("donna corpus entry missing")
	}
	m := compile(t, lib.Source)
	for _, mk := range []func() Config{DefaultPHT, DefaultSTL} {
		cfg := mk()
		res, err := AnalyzeFunc(m, "crypto_scalarmult", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Queries != 0 || res.Discharged == 0 {
			t.Fatalf("%v: queries=%d discharged=%d, want every query decided statically",
				cfg.Engine, res.Queries, res.Discharged)
		}
		if res.TseitinGates != 0 || res.Propagations != 0 || res.Decisions != 0 || res.Conflicts != 0 {
			t.Errorf("%v: solver built for a presolve-decided function: gates=%d propagations=%d decisions=%d conflicts=%d",
				cfg.Engine, res.TseitinGates, res.Propagations, res.Decisions, res.Conflicts)
		}
	}
}

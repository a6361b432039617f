package detect

// Frontend and end-to-end benchmarks over the two heaviest cryptolib
// subjects. The frontend benchmarks isolate its stages — A-CFG
// construction with call splicing, points-to solving, value-flow CSR
// construction, and a full per-source reach sweep over that CSR;
// BenchmarkArchWitness isolates the pre-solver's arch-witness rule; and
// BenchmarkDetectDonna runs both engines over donna's Montgomery
// ladder, the workload the BENCH_parallel.json acceptance numbers track.
// `make profile BENCH=BenchmarkDetectDonna` captures a CPU profile.

import (
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/presolve"
)

// benchSubjects are the corpus entries the frontend benchmarks sweep.
var benchSubjects = []struct {
	lib string
	fn  string
}{
	{"donna", "crypto_scalarmult"},
	{"secretbox", "crypto_secretbox_open"},
}

// benchModule compiles the subject's library once, outside the timed loop.
func benchModule(b *testing.B, libName string) *ir.Module {
	b.Helper()
	lib, ok := cryptolib.Lookup(libName)
	if !ok {
		b.Fatalf("corpus entry %q missing", libName)
	}
	return compile(b, lib.Source)
}

// benchGraph builds the subject's A-CFG once, outside the timed loop.
func benchGraph(b *testing.B, libName, fn string) *acfg.Graph {
	b.Helper()
	g, err := acfg.Build(benchModule(b, libName), fn, acfg.Options{})
	if err != nil {
		b.Fatalf("acfg: %v", err)
	}
	return g
}

func BenchmarkFrontendACFG(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		b.Run(s.lib, func(b *testing.B) {
			m := benchModule(b, s.lib)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := acfg.Build(m, s.fn, acfg.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFrontendAlias(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		b.Run(s.lib, func(b *testing.B) {
			g := benchGraph(b, s.lib, s.fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alias.Analyze(g)
			}
		})
	}
}

// BenchmarkFrontendFlow times the value-flow CSR construction (build)
// apart from the full per-source reach sweep the engines amortize
// through the memo (sweep, from a cold memo each iteration).
func BenchmarkFrontendFlow(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		g := benchGraph(b, s.lib, s.fn)
		al := alias.Analyze(g)
		reach := cfgReachability(g)
		b.Run(s.lib+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFlowGraph(g, al, reach)
			}
		})
		b.Run(s.lib+"/sweep", func(b *testing.B) {
			fg := buildFlowGraph(g, al, reach)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fg.memo = map[int]reachInfo{}
				for _, n := range g.Nodes {
					if n.IsLoad() || n.IsStore() {
						fg.from(n.ID)
					}
				}
			}
		})
	}
}

// BenchmarkArchWitness replays every Clou-stl arch query (the triples
// stlArchQueries enumerates) on a cold pre-solver Analysis per iteration,
// so the entry tree, the prefix memo and the interned paths all start
// empty.
func BenchmarkArchWitness(b *testing.B) {
	for _, s := range benchSubjects {
		s := s
		b.Run(s.lib, func(b *testing.B) {
			d := newTestDetector(b, refSubject{s.lib, benchModule(b, s.lib), s.fn}, DefaultSTL())
			queries := stlArchQueries(d)
			facts := d.ps.Facts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps := presolve.NewAnalysis(facts, d.a)
				for _, q := range queries {
					ps.WitnessArch(q)
				}
			}
		})
	}
}

func BenchmarkDetectDonna(b *testing.B) {
	lib, ok := cryptolib.Lookup("donna")
	if !ok {
		b.Fatal("donna corpus entry missing")
	}
	m := compile(b, lib.Source)
	for _, eng := range []struct {
		name string
		mk   func() Config
	}{{"pht", DefaultPHT}, {"stl", DefaultSTL}} {
		eng := eng
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeFunc(m, "crypto_scalarmult", eng.mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

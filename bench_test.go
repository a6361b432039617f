// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark prints (once) the rows or series the paper
// reports; timings come from the benchmark framework itself. The mapping
// from experiment to benchmark is indexed in DESIGN.md; the
// paper-versus-measured record lives in EXPERIMENTS.md.
package lcm

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/attacks"
	"lcm/internal/baseline"
	"lcm/internal/core"
	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/harness"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/prog"
	"lcm/internal/repair"
)

var printOnce sync.Map

// once prints s a single time per key across benchmark iterations.
func once(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Fprintln(os.Stdout, s)
	}
}

func compileSrc(b *testing.B, src string) *ir.Module {
	b.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- Fig. 1: Spectre v1 event structures / candidate executions ---

func BenchmarkFig1_SpectreV1EventStructures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gs := prog.Expand(prog.SpectreV1(), prog.ExpandOptions{})
		if len(gs) != 2 {
			b.Fatalf("event structures = %d, want 2 (Fig. 1c/1d)", len(gs))
		}
	}
	once("fig1", "Fig.1: Spectre v1 yields 2 event structures, each extending to exactly 1 candidate execution")
}

// --- Fig. 2a: microarchitectural semantics (xstate, rfx) ---

func BenchmarkFig2a_MicroarchSemantics(b *testing.B) {
	structures := prog.Expand(prog.SpectreV1(), prog.ExpandOptions{XStateForLocation: true, Observer: true})
	for i := 0; i < b.N; i++ {
		n := 0
		for _, es := range structures {
			findings := core.FindLeakage(es, core.FindOptions{})
			n += len(findings)
		}
		if n == 0 {
			b.Fatal("no rf/rfx deviations found")
		}
	}
	once("fig2a", "Fig.2a: interference-free microarchitectural witness deviates from com at the observer (rf-NI violations)")
}

// --- Fig. 2b: speculative semantics ---

func BenchmarkFig2b_SpeculativeSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		structures := prog.Expand(prog.SpectreV1(), prog.ExpandOptions{
			Depth: 2, XStateForLocation: true, Observer: true,
		})
		findings := core.FindLeakageInProgramGraphs(structures, core.FindOptions{})
		sum := core.Summarize(findings)
		if sum[core.UDT] == 0 {
			b.Fatal("transient UDT (6S) not found")
		}
	}
	once("fig2b", "Fig.2b: speculation depth 2 exposes the transient universal data transmitter 6S")
}

// --- Table 1: transmitter taxonomy ---

func BenchmarkTable1_TransmitterTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range attacks.All() {
			vs := core.CheckNonInterference(a.Graph)
			ts := core.Classify(a.Graph, vs, core.ClassifyOptions{})
			if len(ts) == 0 {
				b.Fatalf("%s: no transmitters", a.Name)
			}
		}
	}
	once("table1", "Table 1: AT < CT < {DT, UCT} < UDT classification over the §4.2 attack sampling")
}

// --- Figs. 3, 4a, 4b, 5a, 5b: the attack sampling ---

func benchAttack(b *testing.B, name string, wantWorst core.Class) {
	var a attacks.Attack
	for _, aa := range attacks.All() {
		if aa.Name == name {
			a = aa
		}
	}
	for i := 0; i < b.N; i++ {
		if !a.Machine.Confidential(a.Graph) {
			b.Fatal("machine rejects the figure execution")
		}
		vs := core.CheckNonInterference(a.Graph)
		ts := core.Classify(a.Graph, vs, core.ClassifyOptions{})
		worst := core.AT
		for _, t := range ts {
			if t.Class.Rank() > worst.Rank() {
				worst = t.Class
			}
		}
		if worst != wantWorst {
			b.Fatalf("worst class = %v, want %v", worst, wantWorst)
		}
	}
	once("attack-"+name, fmt.Sprintf("%s (%s): worst transmitter class %v — matches the paper", a.Name, a.Figure, wantWorst))
}

func BenchmarkFig3_SpectreV1Variant(b *testing.B)  { benchAttack(b, "spectre-v1-variant", core.UDT) }
func BenchmarkFig4a_SpectreV4(b *testing.B)        { benchAttack(b, "spectre-v4", core.UDT) }
func BenchmarkFig4b_SpectrePSF(b *testing.B)       { benchAttack(b, "spectre-psf", core.UDT) }
func BenchmarkFig5a_SilentStores(b *testing.B)     { benchAttack(b, "silent-stores", core.AT) }
func BenchmarkFig5b_IndirectPrefetch(b *testing.B) { benchAttack(b, "indirect-prefetch", core.UDT) }

// --- Fig. 6: the Clou pipeline, stage by stage ---

const spectreV1C = `
uint8_t A[16];
uint8_t B[131072];
uint32_t size_A = 16;
uint8_t tmp;
void victim(uint32_t y) {
	if (y < size_A) {
		uint8_t x = A[y];
		tmp &= B[x * 512];
	}
}
`

func BenchmarkFig6_ClouPipeline(b *testing.B) {
	b.Run("parse+lower", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compileSrc(b, spectreV1C)
		}
	})
	m := compileSrc(b, spectreV1C)
	b.Run("acfg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := acfg.Build(m, "victim", acfg.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	g, _ := acfg.Build(m, "victim", acfg.Options{})
	b.Run("alias+aeg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			encodeSAEG(g, alias.Analyze(g))
		}
	})
	b.Run("detect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := detect.AnalyzeFunc(m, "victim", detect.DefaultPHT())
			if err != nil {
				b.Fatal(err)
			}
			if r.Counts()[core.UDT] == 0 {
				b.Fatal("UDT lost")
			}
		}
	})
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m2 := compileSrc(b, spectreV1C)
			if _, err := repair.Repair(m2, "victim", detect.DefaultPHT(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	once("fig6", "Fig.6: C source → IR → A-CFG → S-AEG → detection → fence insertion, end to end")
}

// --- Fig. 7: the S-AEG with symbolic edge constraints ---

// encodeSAEG builds the full S-AEG of g: aeg.Build defers both the
// windows and the solver encoding to first use, so encode every branch's
// window here.
func encodeSAEG(g *acfg.Graph, al *alias.Analysis) *aeg.AEG {
	a := aeg.Build(g, al, aeg.Options{})
	for _, br := range a.Branches() {
		a.Misspec(br)
	}
	return a
}

func BenchmarkFig7_SAEG(b *testing.B) {
	m := compileSrc(b, spectreV1C)
	g, err := acfg.Build(m, "victim", acfg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	al := alias.Analyze(g)
	for i := 0; i < b.N; i++ {
		if a := encodeSAEG(g, al); len(a.Branches()) == 0 {
			b.Fatal("no symbolic branches")
		}
	}
	once("fig7", fmt.Sprintf("Fig.7: S-AEG for Spectre v1 — %d nodes with arch/take/misspec/trans edge variables", g.Len()))
}

// --- Table 2, litmus rows ---

func benchLitmusSuite(b *testing.B, suite string) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunLitmusSuite(suite, harness.Options{FuncTimeout: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			out := "Table 2, litmus-" + suite + ":"
			for _, r := range rows {
				out += "\n  " + r.Format()
			}
			once("t2-"+suite, out)
		}
	}
}

func BenchmarkTable2_LitmusPHT(b *testing.B) { benchLitmusSuite(b, "pht") }
func BenchmarkTable2_LitmusSTL(b *testing.B) { benchLitmusSuite(b, "stl") }
func BenchmarkTable2_LitmusFWD(b *testing.B) { benchLitmusSuite(b, "fwd") }
func BenchmarkTable2_LitmusNEW(b *testing.B) { benchLitmusSuite(b, "new") }

// --- Table 2, crypto-library rows ---

func benchLibrary(b *testing.B, name string) {
	lib, ok := cryptolib.Lookup(name)
	if !ok {
		b.Fatalf("unknown library %s", name)
	}
	opts := harness.Options{FuncTimeout: 5 * time.Second, CryptoUniversalOnly: true}
	if name == "donna" {
		// donna's single huge public function needs a bigger budget to
		// surface its STL findings (the paper gives it Wsize=350 and
		// hours of serial time).
		opts.FuncTimeout = 30 * time.Second
	}
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunLibrary(lib, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			out := "Table 2, " + name + ":"
			for _, r := range rows {
				out += "\n  " + r.Format()
			}
			once("t2-"+name, out)
		}
	}
}

func BenchmarkTable2_CryptoTEA(b *testing.B)        { benchLibrary(b, "tea") }
func BenchmarkTable2_CryptoDonna(b *testing.B)      { benchLibrary(b, "donna") }
func BenchmarkTable2_CryptoSecretbox(b *testing.B)  { benchLibrary(b, "secretbox") }
func BenchmarkTable2_CryptoSSL3Digest(b *testing.B) { benchLibrary(b, "ssl3-digest") }
func BenchmarkTable2_CryptoMEECBC(b *testing.B)     { benchLibrary(b, "mee-cbc") }
func BenchmarkTable2_CryptoLibsodium(b *testing.B)  { benchLibrary(b, "libsodium") }
func BenchmarkTable2_CryptoOpenSSL(b *testing.B)    { benchLibrary(b, "openssl") }

// --- §6.1: fence-insertion repair study ---

func BenchmarkRepair_FenceInsertion(b *testing.B) {
	cases := litmus.All()
	for i := 0; i < b.N; i++ {
		totalFences, mitigated := 0, 0
		for _, c := range cases {
			m := compileSrc(b, c.Source)
			cfg := detect.DefaultPHT()
			if c.Suite == "stl" {
				cfg = detect.DefaultSTL()
			}
			cfg.Timeout = 10 * time.Second
			res, err := repair.Repair(m, c.Fn, cfg, 0)
			if err != nil {
				continue
			}
			totalFences += res.Fences
			if res.Remaining == 0 {
				mitigated++
			}
		}
		if i == 0 {
			once("repair", fmt.Sprintf(
				"§6.1 repair: %d/%d benchmarks fully mitigated with %d fences total (~%.1f per vulnerable program)",
				mitigated, len(cases), totalFences, float64(totalFences)/float64(len(cases))))
		}
		if mitigated < len(cases)-2 {
			b.Fatalf("only %d/%d mitigated", mitigated, len(cases))
		}
	}
}

// --- Fig. 8: runtime vs S-AEG size over the libsodium corpus ---

func BenchmarkFig8_RuntimeVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := harness.RunFig8(harness.Options{FuncTimeout: 5 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if !harness.MonotoneTrend(pts) {
			b.Fatal("runtime does not grow with S-AEG size")
		}
		if i == 0 {
			out := "Fig.8 series (libsodium, runtime vs S-AEG node count):\n"
			out += fmt.Sprintf("  %-34s %-9s %8s %12s", "function", "engine", "nodes", "runtime")
			for _, p := range pts {
				out += fmt.Sprintf("\n  %-34s %-9s %8d %12v", p.Fn, p.Engine, p.Nodes, p.Runtime.Round(time.Microsecond))
			}
			once("fig8", out)
		}
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblation_GEPFilter measures the addr_gep filter's effect on the
// PHT suite: universal counts with and without the filter.
func BenchmarkAblation_GEPFilter(b *testing.B) {
	run := func(gep bool) (udt int) {
		for _, c := range litmus.PHT() {
			m := compileSrc(b, c.Source)
			cfg := detect.DefaultPHT()
			cfg.RequireGEP = gep
			r, err := detect.AnalyzeFunc(m, c.Fn, cfg)
			if err != nil {
				b.Fatal(err)
			}
			udt += r.Counts()[core.UDT]
		}
		return udt
	}
	lib, _ := cryptolib.Lookup("openssl")
	om := compileSrc(b, lib.Source)
	runSSL := func(gep bool) (udt int) {
		for _, fn := range lib.PublicFuncs {
			cfg := detect.DefaultPHT()
			cfg.RequireGEP = gep
			cfg.Transmitters = []core.Class{core.UDT}
			cfg.Timeout = 5 * time.Second
			r, err := detect.AnalyzeFunc(om, fn, cfg)
			if err != nil {
				b.Fatal(err)
			}
			udt += r.Counts()[core.UDT]
		}
		return udt
	}
	var with, without, sslWith, sslWithout int
	for i := 0; i < b.N; i++ {
		with, without = run(true), run(false)
		sslWith, sslWithout = runSSL(true), runSSL(false)
	}
	once("abl-gep", fmt.Sprintf(
		"ablation addr_gep: litmus-pht UDTs %d→%d without filter; openssl UDTs %d→%d (no true positives cost; §5.2's base-pointer flows are pruned by taint here)",
		with, without, sslWith, sslWithout))
	if without < with || sslWithout < sslWith {
		b.Fatal("removing the filter must not reduce findings")
	}
}

// BenchmarkAblation_WindowSweep sweeps Wsize on the mee-cbc entry point:
// the §6.2.1 trade-off between coverage and cost.
func BenchmarkAblation_WindowSweep(b *testing.B) {
	lib, _ := cryptolib.Lookup("mee-cbc")
	m := compileSrc(b, lib.Source)
	var report string
	for i := 0; i < b.N; i++ {
		report = "ablation Wsize sweep (mee-cbc, clou-stl):"
		for _, w := range []int{20, 50, 100, 250} {
			cfg := detect.DefaultSTL()
			cfg.AEG.Wsize = w
			cfg.Transmitters = []core.Class{core.UDT, core.UCT}
			cfg.Timeout = 5 * time.Second
			r, err := detect.AnalyzeFunc(m, "mee_cbc_decrypt", cfg)
			if err != nil {
				b.Fatal(err)
			}
			report += fmt.Sprintf("\n  Wsize=%-4d findings=%-4d queries=%-5d time=%v",
				w, len(r.Findings), r.Queries, r.Duration.Round(time.Millisecond))
		}
	}
	once("abl-wsize", report)
}

// BenchmarkAblation_TaintFilter measures the attacker-control filter:
// without it, universal patterns whose access is not steerable survive.
func BenchmarkAblation_TaintFilter(b *testing.B) {
	lib, _ := cryptolib.Lookup("libsodium")
	m := compileSrc(b, lib.Source)
	run := func(taint bool) (udt int) {
		for _, fn := range []string{"crypto_box_seal_probe", "sodium_lookup_gadget", "sodium_bin2hex"} {
			cfg := detect.DefaultPHT()
			cfg.RequireTaint = taint
			cfg.Transmitters = []core.Class{core.UDT}
			cfg.Timeout = 5 * time.Second
			r, err := detect.AnalyzeFunc(m, fn, cfg)
			if err != nil {
				b.Fatal(err)
			}
			udt += r.Counts()[core.UDT]
		}
		return udt
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with, without = run(true), run(false)
	}
	once("abl-taint", fmt.Sprintf("ablation taint filter: UDTs with filter = %d, without = %d", with, without))
	if without < with {
		b.Fatal("removing the taint filter must not reduce findings")
	}
}

// BenchmarkDetectPruned measures the static range-analysis pruner: the
// same libsodium functions analyzed with pruning (default) and with
// -noprune, reporting how many universal candidate patterns the interval
// facts discharge before the SMT stage sees them.
func BenchmarkDetectPruned(b *testing.B) {
	lib, _ := cryptolib.Lookup("libsodium")
	m := compileSrc(b, lib.Source)
	fns := []string{"crypto_pwhash_mix", "sodium_bin2hex", "crypto_kdf_derive"}
	run := func(noPrune bool) (cand, pruned, queries int) {
		for _, fn := range fns {
			cfg := detect.DefaultPHT()
			cfg.NoPrune = noPrune
			cfg.Timeout = 5 * time.Second
			r, err := detect.AnalyzeFunc(m, fn, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cand += r.Candidates
			pruned += r.Pruned
			queries += r.Queries
		}
		return
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(false)
		}
	})
	b.Run("unpruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(true)
		}
	})
	cand, pruned, qOn := run(false)
	_, zero, qOff := run(true)
	if pruned == 0 {
		b.Fatalf("range analysis pruned nothing out of %d candidates", cand)
	}
	if zero != 0 {
		b.Fatalf("NoPrune run still pruned %d candidates", zero)
	}
	if qOn > qOff {
		b.Fatalf("pruning issued more SMT queries (%d) than the unpruned run (%d)", qOn, qOff)
	}
	once("detect-pruned", fmt.Sprintf(
		"range pruning (libsodium %v): %d/%d universal candidates discharged statically; SMT queries %d→%d",
		fns, pruned, cand, qOff, qOn))
}

// BenchmarkBaselineScaling exercises the Table 2 scaling contrast: the
// baseline's eager path exploration vs Clou's symbolic encoding on a
// branch-heavy function.
func BenchmarkBaselineScaling(b *testing.B) {
	mk := func(branches int) *ir.Module {
		code := "uint8_t A[64];\nuint8_t t;\nvoid f(uint32_t x) {\n"
		for i := 0; i < branches; i++ {
			code += fmt.Sprintf("\tif ((x >> %d) & 1) { t += A[%d]; }\n", i, i+1)
		}
		code += "}\n"
		return compileSrc(b, code)
	}
	var report string
	for i := 0; i < b.N; i++ {
		report = "Table 2 scaling contrast (sequential branches; baseline explores 2^n paths):"
		for _, n := range []int{6, 10, 14, 17} {
			m := mk(n)
			t0 := time.Now()
			if _, err := detect.AnalyzeFunc(m, "f", detect.DefaultPHT()); err != nil {
				b.Fatal(err)
			}
			clouT := time.Since(t0)
			t0 = time.Now()
			r, err := baseline.AnalyzeFunc(m, "f", baseline.Config{PHT: true})
			if err != nil {
				b.Fatal(err)
			}
			bhT := time.Since(t0)
			report += fmt.Sprintf("\n  branches=%-3d clou=%-12v bh=%-12v bh-paths=%d",
				n, clouT.Round(time.Millisecond), bhT.Round(time.Millisecond), r.Paths)
		}
	}
	once("baseline-scaling", report)
}

// --- Parallel pipeline: worker-pool speedup and determinism ---

// BenchmarkParallelSweep runs the two broadest corpus libraries through
// the harness at Parallelism 1 and 4 and reports the speedup. A warmup
// sweep fills the process-wide frontend cache first, so both measured
// runs are equally cache-hot and the ratio isolates the worker pool
// itself. Findings must be identical across worker counts; the ≥2×
// speedup expectation is asserted only on machines that actually have
// four CPUs to schedule onto.
func BenchmarkParallelSweep(b *testing.B) {
	libNames := []string{"libsodium", "openssl"}
	sweep := func(workers int) ([]harness.Row, time.Duration, error) {
		opts := harness.Options{
			FuncTimeout:         5 * time.Second,
			CryptoUniversalOnly: true,
			Parallelism:         workers,
		}
		start := time.Now()
		var all []harness.Row
		for _, name := range libNames {
			lib, ok := cryptolib.Lookup(name)
			if !ok {
				return nil, 0, fmt.Errorf("unknown library %s", name)
			}
			rows, err := harness.RunLibrary(lib, opts)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, rows...)
		}
		return all, time.Since(start), nil
	}

	if _, _, err := sweep(1); err != nil { // warmup: fill the frontend cache
		b.Fatal(err)
	}

	results := map[int][]harness.Row{}
	timings := map[int]time.Duration{}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, elapsed, err := sweep(workers)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := results[workers]; !ok {
					results[workers] = rows
					timings[workers] = elapsed
				}
			}
		})
	}

	serial, par := results[1], results[4]
	if len(serial) != len(par) {
		b.Fatalf("row count differs across worker counts: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Findings, par[i].Findings) {
			b.Fatalf("row %d (%s/%s): findings differ across worker counts",
				i, serial[i].App, serial[i].Tool)
		}
	}
	speedup := float64(timings[1]) / float64(timings[4])
	once("parallel-sweep", fmt.Sprintf(
		"Parallel sweep (libsodium+openssl, cache-hot): workers=1 %v, workers=4 %v, speedup %.2fx (GOMAXPROCS=%d)",
		timings[1].Round(time.Millisecond), timings[4].Round(time.Millisecond),
		speedup, runtime.GOMAXPROCS(0)))
	if runtime.GOMAXPROCS(0) >= 4 && speedup < 2 {
		b.Fatalf("speedup %.2fx < 2x with %d CPUs available", speedup, runtime.GOMAXPROCS(0))
	}
}

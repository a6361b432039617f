package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json, the metric lists
// the program reports, and the target table in targets.json in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join([]string{cryptoSweep, cryptoAudit, conformCampaign}, ","); got != want {
		t.Errorf("workloads %s, program runs %s", got, want)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	var line []layerMetric
	for _, lm := range layerMetrics {
		if lm.Line {
			line = append(line, lm)
		}
	}
	if len(line) != len(b.PerLayer) {
		t.Fatalf("per_layer lists %d metrics, program's result line %d", len(b.PerLayer), len(line))
	}
	for i, m := range b.PerLayer {
		if m.Name != line[i].Name || m.Unit != line[i].Unit {
			t.Errorf("per_layer[%d] = %s (%s), program reports %s (%s)", i, m.Name, m.Unit, line[i].Name, line[i].Unit)
		}
	}

	data, err := os.ReadFile("targets.json")
	if err != nil {
		t.Fatal(err)
	}
	var targets struct {
		Targets []struct{ Metrics []string } `json:"targets"`
	}
	if err := json.Unmarshal(data, &targets); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, tg := range targets.Targets {
		for _, m := range tg.Metrics {
			covered[m] = true
		}
	}
	for _, lm := range layerMetrics {
		if !covered[lm.Name] {
			t.Errorf("per-layer metric %s has no entry in targets.json", lm.Name)
		}
		delete(covered, lm.Name)
	}
	for m := range covered {
		t.Errorf("targets.json names %s, which the program does not report", m)
	}
}

// table2 is EXPERIMENTS.md's Table 2 crypto rows, UDT and UCT per
// library and engine. EXPERIMENTS.md's secretbox stl row (UDT=81) was
// measured under a 5 s per-function budget that cut the search short;
// run to completion (the harness default budget), the same source gives
// 356 at the seed commit and today, so that row is pinned at 356.
var table2 = map[string][2]int{
	"tea/clou-pht": {0, 0}, "tea/clou-stl": {0, 0},
	"donna/clou-pht": {0, 0}, "donna/clou-stl": {1098, 0},
	"secretbox/clou-pht": {0, 27}, "secretbox/clou-stl": {356, 0},
	"ssl3-digest/clou-pht": {1, 0}, "ssl3-digest/clou-stl": {191, 0},
	"mee-cbc/clou-pht": {4, 111}, "mee-cbc/clou-stl": {54, 0},
	"libsodium/clou-pht": {12, 85}, "libsodium/clou-stl": {116, 0},
	"openssl/clou-pht": {7, 9}, "openssl/clou-stl": {30, 0},
}

// TestExpectedMatchesTable2 checks the per-function crypto pins against
// the per-library totals of Table 2.
func TestExpectedMatchesTable2(t *testing.T) {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]int{}
	for item, verdict := range want.Crypto {
		parts := strings.Split(item, "/")
		if len(parts) != 3 {
			t.Fatalf("malformed crypto pin key %q", item)
		}
		var c [4]int // DT, CT, UDT, UCT
		for i, f := range strings.Fields(verdict) {
			_, v, _ := strings.Cut(f, "=")
			if c[i], err = strconv.Atoi(v); err != nil {
				t.Fatalf("%s: malformed verdict %q", item, verdict)
			}
		}
		if c[0] != 0 || c[1] != 0 {
			t.Errorf("%s: DT/CT pinned nonzero in a UDT/UCT-only sweep: %q", item, verdict)
		}
		key := parts[0] + "/" + parts[2]
		got[key] = [2]int{got[key][0] + c[2], got[key][1] + c[3]}
	}
	if len(got) != len(table2) {
		t.Errorf("pins cover %d (library, engine) rows, Table 2 has %d", len(got), len(table2))
	}
	for k, w := range table2 {
		if got[k] != w {
			t.Errorf("%s: pinned UDT/UCT %v, Table 2 %v", k, got[k], w)
		}
	}
}

// toyConfig returns a small configuration of workload: two cheap crypto
// libraries or a two-program campaign, with the warm-up and one timed
// pass per width.
func toyConfig(t *testing.T, workload string, trace bool) config {
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir(),
		libs:     []string{"tea", "openssl"},
		campaign: campaign{seed: 5, n: 2}, want: want,
	}
}

// runToy runs cfg and returns its result and the lines it prints.
func runToy(t *testing.T, cfg config) (*result, []string) {
	t.Helper()
	res, meta, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeResult(&out, meta, res); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return res, lines
}

// checkResultLine checks the last printed line against the result-line
// schema: exactly correct/attempted/failed/metrics, and exactly the
// named metrics, each a finite value with its unit.
func checkResultLine(t *testing.T, lines []string, names []string, units map[string]string) map[string]float64 {
	t.Helper()
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "# meta {") {
		t.Fatalf("output does not start with the run metadata: %q", lines)
	}
	var meta map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[0], "# meta ")), &meta); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go_version", "cpu_model", "commit", "source_sha256", "seed", "size"} {
		if _, ok := meta[k]; !ok {
			t.Errorf("metadata lacks %s", k)
		}
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("result line fields missing or empty: %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(names) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(names))
	}
	values := map[string]float64{}
	for _, n := range names {
		m, ok := line.Metrics[n]
		if !ok || m.Value == nil {
			t.Errorf("metric %s missing", n)
			continue
		}
		if math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("metric %s = %v", n, *m.Value)
		}
		if m.Unit != units[n] {
			t.Errorf("metric %s unit %q, want %q", n, m.Unit, units[n])
		}
		values[n] = *m.Value
	}
	return values
}

func endToEndUnits(t *testing.T) ([]string, map[string]string) {
	units := map[string]string{}
	for _, m := range readBenchmarkFile(t).EndToEnd {
		units[m.Name] = m.Unit
	}
	return endToEnd, units
}

func perLayerUnits(t *testing.T) ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	for _, m := range readBenchmarkFile(t).PerLayer {
		names = append(names, m.Name)
		units[m.Name] = m.Unit
	}
	return names, units
}

// metricValue returns the named metric of res (including table-only ones).
func metricValue(t *testing.T, res *result, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not reported", name)
	return 0
}

// TestToyWorkloads runs each workload at toy size, untraced and traced,
// and checks the output schema, the verdicts, and the trace file.
func TestToyWorkloads(t *testing.T) {
	for _, w := range []string{cryptoSweep, cryptoAudit, conformCampaign} {
		t.Run(w, func(t *testing.T) {
			cfg := toyConfig(t, w, false)
			res, lines := runToy(t, cfg)
			names, units := endToEndUnits(t)
			vals := checkResultLine(t, lines, names, units)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("toy run not correct: failed=%d wrong=%v", res.Failed, metricValue(t, res, "wrong_verdicts"))
			}
			for _, n := range names {
				if vals[n] <= 0 {
					t.Errorf("%s = %v, want > 0", n, vals[n])
				}
			}

			cfg.trace = true
			res, lines = runToy(t, cfg)
			names, units = perLayerUnits(t)
			vals = checkResultLine(t, lines, names, units)
			if !res.Correct {
				t.Errorf("traced toy run not correct")
			}
			for _, n := range []string{"detect.analyze_ms", "aeg.build_ms", "trace.overhead", "harness.parallel_speedup", "acfg.nodes"} {
				if vals[n] <= 0 {
					t.Errorf("%s = %v, want > 0", n, vals[n])
				}
			}
			if w == conformCampaign && metricValue(t, res, "campstore.reopen_ms") <= 0 {
				t.Errorf("campstore.reopen_ms not measured")
			}
			checkTraceFile(t, cfg)
		})
	}
}

// checkTraceFile checks the written trace: per item, the separately
// timed layers plus detect.self add up to detect.analyze, and each span
// has a parent that started no later than it did.
func checkTraceFile(t *testing.T, cfg config) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(cfg.workDir, "traces", cfg.workload+"-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Items []itemRecord `json:"items"`
		Spans []struct {
			span
			SelfNs int64 `json:"self_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Items) == 0 || len(tf.Spans) == 0 {
		t.Fatalf("trace has %d items and %d spans", len(tf.Items), len(tf.Spans))
	}
	for _, it := range tf.Items {
		sum := it.Ms["detect.self"]
		for _, l := range frontendLayers {
			sum += it.Ms[l]
		}
		if math.Abs(sum-it.Ms["detect.analyze"]) > 1e-6 {
			t.Errorf("%s: layers + self = %v ms, detect.analyze = %v ms", it.Item, sum, it.Ms["detect.analyze"])
		}
	}
	for _, s := range tf.Spans {
		if s.Parent >= 0 && tf.Spans[s.Parent].Start > s.Start {
			t.Errorf("span %d (%s) starts before its parent", s.ID, s.Name)
		}
		if s.SelfNs < 0 || s.SelfNs > s.End-s.Start {
			t.Errorf("span %d (%s) self time %d outside [0, %d]", s.ID, s.Name, s.SelfNs, s.End-s.Start)
		}
	}
}

// TestDoctoredPinIsCaught is the benchmark's mutation check: one pinned
// count changed by one must make every pass report that item as a wrong
// verdict, and the run as incorrect.
func TestDoctoredPinIsCaught(t *testing.T) {
	cfg := toyConfig(t, cryptoSweep, false)
	doctored := *cfg.want
	doctored.Crypto = map[string]string{}
	for k, v := range cfg.want.Crypto {
		doctored.Crypto[k] = v
	}
	const item = "openssl/SSL_get_shared_sigalgs/clou-pht"
	v, ok := doctored.Crypto[item]
	if !ok || !strings.Contains(v, "UDT=5 ") {
		t.Fatalf("pin for %s is %q; the mutation expects UDT=5", item, v)
	}
	doctored.Crypto[item] = strings.Replace(v, "UDT=5 ", "UDT=6 ", 1)
	cfg.want = &doctored
	res, _ := runToy(t, cfg)
	passes := metricValue(t, res, "passes")
	if res.Correct {
		t.Error("run with a doctored pin reported correct")
	}
	if got := metricValue(t, res, "wrong_verdicts"); got != passes {
		t.Errorf("wrong_verdicts = %v, want one per pass (%v)", got, passes)
	}
	if res.Failed != int(passes) || metricValue(t, res, "failed_share") <= 0 {
		t.Errorf("failed = %d, failed_share = %v; want the item failed in every pass", res.Failed, metricValue(t, res, "failed_share"))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 2, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []int64{50, 30, 20, 10}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStealShare(t *testing.T) {
	for _, c := range []struct {
		a, b cpuTicks
		want float64
	}{
		{cpuTicks{100, 5}, cpuTicks{190, 15}, 0.1},
		{cpuTicks{100, 5}, cpuTicks{200, 5}, 0},
		{cpuTicks{100, 5}, cpuTicks{110, 15}, 0}, // too few ticks to tell
		{cpuTicks{}, cpuTicks{}, 0},
	} {
		if got := stealShare(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stealShare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

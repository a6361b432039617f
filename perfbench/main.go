// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed measuring time, checks every verdict it
// times against pinned references, and prints each metric by name with
// its unit; the last line of standard output is one JSON object
//
//	{"correct": true, "attempted": 336, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; times are taken as wall time less the CPU time a
// hypervisor stole meanwhile (see passTiming.rate), and the uncorrected
// values are printed beside them. With -trace 1 a separate
// traced pass calls each pipeline layer's public entry point itself,
// records one span per call, and reports per-layer times and work
// counts; the spans are written to <work-dir>/traces/ when the run ends.
//
// Workloads:
//
//	crypto-sweep      the Table 2 crypto corpus, UDT/UCT only, presolve on
//	crypto-audit      the same corpus with every presolve discharge replayed through SAT
//	conform-campaign  a fixed progen campaign committed to a campstore, every oracle per program
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload crypto-sweep -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Workload names. They are the benchmark's contract: later changes name
// their claims by these and by the metric names below.
const (
	cryptoSweep     = "crypto-sweep"
	cryptoAudit     = "crypto-audit"
	conformCampaign = "conform-campaign"
)

// endToEnd lists the metrics the untraced run's result line carries, in
// BENCHMARK.json order.
var endToEnd = []string{"setup_s", "items_per_s", "serial_items_per_s", "peak_rss_mb"}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the result line's fields plus the
// metrics printed only in the human-readable table.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Line names the metrics the final JSON line carries; every other
	// metric is printed in the table and kept in the trace file only.
	Line []string
}

// config is one run's parameters. Tests shrink the workloads through
// libs and campaign; the command line sets the rest.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
	// libs restricts the crypto corpus to the named libraries (nil = all).
	libs []string
	// campaign is the conform-campaign's fixed progen campaign.
	campaign campaign
	// want holds the pinned verdicts the run is checked against.
	want *expected
	// setupTime is how long set-up is repeated (at least three rounds);
	// setup_s is the median round.
	setupTime time.Duration
}

func main() {
	cfg := config{campaign: defaultCampaign, setupTime: time.Second}
	flag.StringVar(&cfg.workload, "workload", "", "workload: crypto-sweep, crypto-audit or conform-campaign")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (orders library submission and pass widths)")
	secs := flag.Float64("seconds", 25, "measuring time per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for campaign stores and trace files")
	flag.Parse()
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traceFlag == 1
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	want, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.want = want
	res, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, meta, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one configured run and returns its result and the run
// metadata that stamps every output.
func run(cfg config) (*result, map[string]any, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("work dir: %w", err)
	}
	var w workload
	switch cfg.workload {
	case cryptoSweep, cryptoAudit:
		w = newCryptoWorkload(cfg)
	case conformCampaign:
		w = newConformWorkload(cfg)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)",
			cfg.workload, cryptoSweep, cryptoAudit, conformCampaign)
	}
	meta := fingerprint(cfg, w.size())
	var (
		res *result
		err error
	)
	if cfg.trace {
		res, err = runTraced(cfg, w, meta)
	} else {
		res, err = measure(cfg, w, meta)
	}
	return res, meta, err
}

// workload is one benchmark workload: a repeatable set-up, a timed pass
// at a given worker count, and a traced pass that calls every layer.
type workload interface {
	// setup performs one round of set-up; first is true for the round
	// whose work the timed passes rely on.
	setup(first bool) error
	// pass runs every item once at j workers, checks each verdict into
	// bk, and returns the pass's wall time and item count. A non-nil tr
	// receives the pass's phase-level spans and counts.
	pass(j int, bk *book, tr *tracer) (time.Duration, int, error)
	// traced runs every item once at one worker, calling each layer
	// itself under tr.
	traced(tr *tracer, bk *book) error
	// size describes the workload's inputs for the run metadata.
	size() map[string]any
	// pins returns the pinned verdict of every item.
	pins() map[string]string
}

// measure is the untraced run: set-up rounds, a warm-up pass, then timed
// passes that alternate between GOMAXPROCS workers and one worker until
// the measuring time is spent. Set-up time is the median round, and
// throughputs the medians over passes, both over steal-corrected wall
// time (see passTiming.rate); peak RSS is the median over full-width
// passes of each pass's peak.
func measure(cfg config, w workload, meta map[string]any) (*result, error) {
	var rounds []float64
	before, setupStart := readCPUTicks(), time.Now()
	for i := 0; i < 3 || time.Since(setupStart) < cfg.setupTime; i++ {
		t := time.Now()
		if err := w.setup(i == 0); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rounds = append(rounds, time.Since(t).Seconds())
	}
	// A round lasts milliseconds, below the clock-tick resolution of the
	// steal counters, so the whole set-up phase's steal share corrects
	// the median round.
	setupSteal := stealShare(before, readCPUTicks())
	wide := runtime.GOMAXPROCS(0)
	widths := []int{wide, 1}
	if cfg.seed%2 == 0 {
		widths = []int{1, wide}
	}
	bk := newBook(w.pins())
	// One untimed pass at full width lets the heap and the GC pacer
	// settle before timing; its verdicts are checked like the rest.
	if _, _, err := w.pass(wide, bk, nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	rates, wallRates := map[int][]float64{}, map[int][]float64{}
	var peaks, steals []float64
	t0 := time.Now()
	for k := 0; k < 2 || time.Since(t0) < cfg.seconds; k++ {
		j := widths[k%2]
		// Return the previous pass's heap to the OS, so that each pass
		// starts from a small heap as a fresh process would, and its
		// peak RSS is its own.
		debug.FreeOSMemory()
		var pt passTiming
		peak, err := peakRSSDuring(func() (err error) {
			pt, err = timePass(w, j, bk, nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("pass at -j %d: %w", j, err)
		}
		rates[j] = append(rates[j], pt.rate())
		wallRates[j] = append(wallRates[j], pt.wallRate())
		steals = append(steals, pt.steal)
		if j == wide {
			peaks = append(peaks, peak)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d at -j %d: %d items in %.3fs (steal %.1f%%), peak RSS %.1f MiB\n",
			k+1, j, pt.items, pt.wall.Seconds(), 100*pt.steal, peak)
	}
	res := &result{
		Correct:   bk.ok(),
		Attempted: bk.attempted,
		Failed:    bk.failedItems(),
		Line:      endToEnd,
		Metrics: []metric{
			{"setup_s", median(rounds) * (1 - setupSteal), "s"},
			{"items_per_s", median(rates[wide]), "1/s"},
			{"serial_items_per_s", median(rates[1]), "1/s"},
			{"peak_rss_mb", median(peaks), "MiB"},
			{"wrong_verdicts", float64(bk.wrong), "count"},
			{"failed_share", float64(bk.failedItems()) / float64(max(bk.attempted, 1)), "ratio"},
			{"setup_s_wall", median(rounds), "s"},
			{"items_per_s_wall", median(wallRates[wide]), "1/s"},
			{"serial_items_per_s_wall", median(wallRates[1]), "1/s"},
			{"steal_share", median(steals), "ratio"},
			// Checked passes: the timed ones and the warm-up.
			{"passes", float64(len(rates[wide]) + len(rates[1]) + 1), "count"},
		},
	}
	return res, bk.report(os.Stderr, cfg.workDir, cfg.workload, meta)
}

// passTiming is one timed pass.
type passTiming struct {
	items int
	wall  time.Duration
	// steal is the share of the machine's CPU time that a hypervisor
	// withheld from runnable virtual CPUs during the pass (0 on bare metal
	// or where /proc/stat is unreadable).
	steal float64
}

// rate is items per second of steal-corrected wall time: the pass's
// wall time less the stolen share. On a shared virtual machine, CPU
// steal by neighbouring guests moved raw pass times by 15-20% between
// runs minutes apart; the correction keeps the rate a property of the
// program. wallRate is the uncorrected rate a user of that machine saw.
func (p passTiming) rate() float64 { return float64(p.items) / (p.wall.Seconds() * (1 - p.steal)) }

func (p passTiming) wallRate() float64 { return float64(p.items) / p.wall.Seconds() }

// timePass runs one pass of w at j workers and times it.
func timePass(w workload, j int, bk *book, tr *tracer) (passTiming, error) {
	before := readCPUTicks()
	wall, items, err := w.pass(j, bk, tr)
	after := readCPUTicks()
	return passTiming{items: items, wall: wall, steal: stealShare(before, after)}, err
}

// writeResult prints the run metadata, the metric table, and the final
// JSON result line.
func writeResult(w io.Writer, meta map[string]any, res *result) error {
	m, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# meta %s\n", m)
	fmt.Fprintf(w, "%-34s %16s  %s\n", "metric", "value", "unit")
	for _, mt := range res.Metrics {
		fmt.Fprintf(w, "%-34s %16.6g  %s\n", mt.Name, mt.Value, mt.Unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	byName := map[string]metric{}
	for _, mt := range res.Metrics {
		byName[mt.Name] = mt
	}
	for _, name := range res.Line {
		mt, ok := byName[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		line.Metrics[name] = value{mt.Value, mt.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

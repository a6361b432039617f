package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// expectedJSON pins the verdict of every benchmark item. The crypto
// entries were cross-checked against EXPERIMENTS.md Table 2 (the test
// TestExpectedMatchesTable2 keeps the per-library totals in step); the
// conform entries pin one verdict line per program of each campaign.
//
//go:embed expected.json
var expectedJSON []byte

// expected is the parsed pin file. Crypto keys are
// "library/function/engine"; conform keys are campaign names (see
// campaign.key) mapping program names ("g0003") to verdict lines.
type expected struct {
	Crypto  map[string]string            `json:"crypto"`
	Conform map[string]map[string]string `json:"conform"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// book checks item verdicts as passes produce them. An item is wrong
// when its verdict differs from the pinned reference or its findings
// differ from the first pass that produced it (so -j 1 and -j N passes
// must agree exactly); it has failed when it is wrong, errored, timed
// out, hit a budget, or was decided below the full ladder rung. Every
// miss is counted — none is dropped.
type book struct {
	want      map[string]string
	seen      map[string]string // verdict of each item's latest pass
	first     map[string]string // findings digest of each item's first pass
	attempted int
	failed    int // failed items, counted per pass
	wrong     int // wrong verdicts, counted per pass
	notes     []string
}

func newBook(want map[string]string) *book {
	return &book{want: want, seen: map[string]string{}, first: map[string]string{}}
}

// check records one item of one pass. degraded is true when the item
// errored, timed out, hit a budget, or was not decided at full rung.
func (b *book) check(item, verdict, digest string, degraded bool) {
	b.attempted++
	b.seen[item] = verdict
	wrong := false
	if want, ok := b.want[item]; !ok {
		wrong = true
		b.note("%s: no pinned verdict (got %q)", item, verdict)
	} else if want != verdict {
		wrong = true
		b.note("%s: verdict %q, pinned %q", item, verdict, want)
	}
	if prev, ok := b.first[item]; !ok {
		b.first[item] = digest
	} else if prev != digest {
		wrong = true
		b.note("%s: findings differ from the item's first pass", item)
	}
	if wrong {
		b.wrong++
	}
	if wrong || degraded {
		b.failed++
	}
}

// fail records a miss that is not tied to one item's verdict (e.g. a
// presolve disagreement or a timeout reported only as a counter).
func (b *book) fail(wrong bool, format string, args ...any) {
	b.failed++
	if wrong {
		b.wrong++
	}
	b.note(format, args...)
}

func (b *book) note(format string, args ...any) {
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// failedItems is the failed count, capped at the attempted count (a miss
// reported only as a counter may coincide with a wrong item).
func (b *book) failedItems() int { return min(b.failed, b.attempted) }

func (b *book) ok() bool { return b.wrong == 0 && b.failed == 0 && b.attempted > 0 }

// report prints the first misses to w and writes every observed verdict,
// in the form of expected.json's entries and stamped with the run
// metadata, to <dir>/verdicts/<workload>.json, so that a miss can be
// compared with its pin.
func (b *book) report(w io.Writer, dir, workload string, meta map[string]any) error {
	for _, n := range b.notes {
		fmt.Fprintln(w, "perfbench: miss:", n)
	}
	data, err := json.MarshalIndent(map[string]any{"meta": meta, "verdicts": b.seen}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "verdicts"), 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "verdicts", workload+".json"), append(data, '\n'), 0o644)
}

// digest hashes a canonical rendering of an item's findings.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

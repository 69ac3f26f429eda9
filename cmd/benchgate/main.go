// Command benchgate is the CI bench-regression gate: it parses `go test
// -bench` output, compares selected benchmark metrics against committed
// baselines, and exits non-zero when a metric regresses beyond the
// tolerance.
//
//	go test -bench . -benchtime 10x -run xxx . | tee bench.out
//	go run ./cmd/benchgate -dir . -input bench.out            # every BENCH_*.json
//	go run ./cmd/benchgate -baseline BENCH_2.json -input bench.out
//	go run ./cmd/benchgate -dir . -input bench.out -update    # rewrite baselines
//
// The gated metrics are the modelled quantities the benchmarks report
// (speedups, makespans, throughput-at-SLO) rather than ns/op: modelled
// numbers are machine-independent, so the gate stays meaningful across CI
// runners.
//
// Baseline keys are benchmark names; a key may carry an "@alias" suffix
// ("BenchmarkFleetThroughput@fleet_speedup") so one benchmark can gate
// several metrics — the suffix is stripped before matching bench output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Baseline is one committed reference file the gate compares against.
type Baseline struct {
	// Tolerance is the allowed relative regression (0.25 = 25%).
	Tolerance float64 `json:"tolerance"`
	// Comment documents why a baseline is shaped the way it is (e.g. a
	// widened tolerance for wall-clock metrics subject to runner jitter).
	// It is round-tripped verbatim by -update.
	Comment    string               `json:"comment,omitempty"`
	Benchmarks map[string]Reference `json:"benchmarks"`
}

// Reference pins one benchmark metric.
type Reference struct {
	Metric         string  `json:"metric"`
	HigherIsBetter bool    `json:"higher_is_better"`
	Value          float64 `json:"value"`
	// Exact gates the metric at equality with Value, ignoring the
	// tolerance: any deviation in either direction fails. It pins
	// correctness counters (e.g. guaranteed-class bound violations, which
	// must be exactly zero — "only a few violations" is not a property),
	// and -update refuses to move an exact value, so a refresh can never
	// silently launder a broken invariant into a new baseline.
	Exact bool `json:"exact,omitempty"`
	// Ceiling gates the metric at or below Value, ignoring the tolerance:
	// any increase fails, any decrease passes, and -update may lower Value
	// but never raise it. It pins counts that only a regression raises
	// (allocations per op), so they ratchet down one refresh at a time.
	Ceiling bool `json:"ceiling,omitempty"`
}

// benchName strips the optional "@alias" suffix off a baseline key.
func benchName(key string) string {
	if i := strings.Index(key, "@"); i > 0 {
		return key[:i]
	}
	return key
}

// parseBench extracts per-benchmark metric values from `go test -bench`
// text output. Lines look like:
//
//	BenchmarkFoo-8   10   123456 ns/op   2.35 speedup_x8   0.58 modelled_s
//
// The "-8" GOMAXPROCS suffix is stripped; value/unit pairs after the
// iteration count become the metric map (ns/op included).
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: not a result line
		}
		metrics := out[name]
		if metrics == nil {
			metrics = make(map[string]float64)
			out[name] = metrics
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = v
		}
	}
	return out, sc.Err()
}

// check compares observed metrics against one baseline and returns one
// human-readable verdict line per gated benchmark plus the overall pass.
func check(base Baseline, observed map[string]map[string]float64) (lines []string, ok bool) {
	tol := base.Tolerance
	if tol <= 0 {
		tol = 0.25
	}
	keys := make([]string, 0, len(base.Benchmarks))
	for key := range base.Benchmarks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ok = true
	for _, key := range keys {
		ref := base.Benchmarks[key]
		got, found := observed[benchName(key)][ref.Metric]
		if !found {
			lines = append(lines, fmt.Sprintf("FAIL %s: metric %q missing from bench output", key, ref.Metric))
			ok = false
			continue
		}
		var regressed bool
		var change float64
		if ref.Value != 0 {
			change = (got - ref.Value) / ref.Value
		}
		if ref.Exact {
			regressed = got != ref.Value
		} else if ref.Ceiling {
			regressed = got > ref.Value
		} else if ref.HigherIsBetter {
			regressed = got < ref.Value*(1-tol)
		} else {
			regressed = got > ref.Value*(1+tol)
		}
		verdict := "ok  "
		if regressed {
			verdict = "FAIL"
			ok = false
		}
		if ref.Exact {
			lines = append(lines, fmt.Sprintf("%s %s: %s = %.4g (exact baseline %.4g)",
				verdict, key, ref.Metric, got, ref.Value))
		} else if ref.Ceiling {
			lines = append(lines, fmt.Sprintf("%s %s: %s = %.4g (ceiling %.4g)",
				verdict, key, ref.Metric, got, ref.Value))
		} else {
			lines = append(lines, fmt.Sprintf("%s %s: %s = %.4g (baseline %.4g, %+.1f%%, tolerance %.0f%%)",
				verdict, key, ref.Metric, got, ref.Value, change*100, tol*100))
		}
	}
	return lines, ok
}

// update rewrites the baseline's values from the observed metrics,
// keeping metric names, directions, and tolerance. Exact references are
// verified, never rewritten: a run that deviates from an exact pin fails
// the update rather than re-baselining the invariant. A ceiling only
// comes down: a run above it fails the update the same way.
func update(base Baseline, observed map[string]map[string]float64) (Baseline, error) {
	for key, ref := range base.Benchmarks {
		got, found := observed[benchName(key)][ref.Metric]
		if !found {
			return base, fmt.Errorf("benchgate: metric %q of %s missing from bench output", ref.Metric, key)
		}
		if ref.Exact {
			if got != ref.Value {
				return base, fmt.Errorf("benchgate: exact metric %q of %s is %.4g, pinned at %.4g — fix the regression, don't re-baseline it",
					ref.Metric, key, got, ref.Value)
			}
			continue
		}
		if ref.Ceiling && got > ref.Value {
			return base, fmt.Errorf("benchgate: ceiling metric %q of %s is %.4g, above its ceiling %.4g — fix the regression, don't raise the ceiling",
				ref.Metric, key, got, ref.Value)
		}
		ref.Value = got
		base.Benchmarks[key] = ref
	}
	return base, nil
}

// loadBaseline reads and validates one baseline file.
func loadBaseline(path string) (Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return Baseline{}, fmt.Errorf("benchgate: bad baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return Baseline{}, fmt.Errorf("benchgate: baseline %s gates no benchmarks", path)
	}
	for key, ref := range base.Benchmarks {
		if ref.Ceiling && (ref.Exact || ref.HigherIsBetter) {
			return Baseline{}, fmt.Errorf("benchgate: baseline %s: %s is a ceiling, so neither exact nor higher-is-better", path, key)
		}
	}
	return base, nil
}

// baselinePaths resolves the files to gate: every BENCH_*.json in dir
// (sorted), or the single -baseline file when dir is empty.
func baselinePaths(dir, single string) ([]string, error) {
	if dir == "" {
		return []string{single}, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("benchgate: no BENCH_*.json files in %s", dir)
	}
	sort.Strings(paths)
	return paths, nil
}

func run(dir, baselinePath, inputPath string, doUpdate bool, stdout io.Writer) error {
	paths, err := baselinePaths(dir, baselinePath)
	if err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if inputPath != "" && inputPath != "-" {
		f, err := os.Open(inputPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	observed, err := parseBench(in)
	if err != nil {
		return err
	}
	bases := make([]Baseline, len(paths))
	for i, path := range paths {
		base, err := loadBaseline(path)
		if err != nil {
			return err
		}
		bases[i] = base
	}
	if doUpdate {
		// Two phases so a refresh is atomic: compute every rewrite first,
		// write only if all baselines resolved against the bench output —
		// an error must not leave some files updated and others not.
		rendered := make([][]byte, len(paths))
		for i, base := range bases {
			updated, err := update(base, observed)
			if err != nil {
				return err
			}
			out, err := json.MarshalIndent(updated, "", "  ")
			if err != nil {
				return err
			}
			rendered[i] = append(out, '\n')
		}
		for i, path := range paths {
			if err := os.WriteFile(path, rendered[i], 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "benchgate: wrote %s\n", path)
		}
		return nil
	}
	allOK := true
	for i, path := range paths {
		lines, ok := check(bases[i], observed)
		for _, l := range lines {
			fmt.Fprintf(stdout, "%s [%s]\n", l, filepath.Base(path))
		}
		if !ok {
			allOK = false
		}
	}
	if !allOK {
		return fmt.Errorf("benchgate: benchmark regression beyond tolerance")
	}
	return nil
}

func main() {
	dir := flag.String("dir", "", "gate every BENCH_*.json in this directory (overrides -baseline)")
	baseline := flag.String("baseline", "BENCH_2.json", "single committed baseline JSON")
	input := flag.String("input", "-", "bench output file ('-' = stdin)")
	doUpdate := flag.Bool("update", false, "rewrite the baseline(s) from the bench output instead of checking")
	flag.Parse()
	if err := run(*dir, *baseline, *input, *doUpdate, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

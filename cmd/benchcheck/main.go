// Command benchcheck compares a `go test -bench` run against the
// committed BENCH_*.json baselines and fails (exit 1) when any tracked
// benchmark regressed beyond the allowed threshold, so CI catches
// performance regressions instead of silently uploading them as artifacts.
//
// Usage:
//
//	go test -run xxx -bench ... -count 5 . | tee bench.txt
//	go run ./cmd/benchcheck -results bench.txt -baselines . -max-regress 25
//
// Each baseline file's "benchmarks" object maps a fully-qualified
// benchmark name (as printed by the testing package, minus the -N GOMAXPROCS
// suffix) to a history of entries; the LAST entry's ns_per_op is the
// committed baseline. A baselined benchmark missing from the run FAILS it:
// a benchmark that errored out or was dropped from the run is a gate that
// can no longer fail. Benchmarks without a baseline are reported only (new
// benchmarks land before their baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type baselineFile struct {
	Benchmarks map[string][]struct {
		Label   string  `json:"label"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

func main() {
	results := flag.String("results", "", "bench output file (go test -bench format)")
	baselines := flag.String("baselines", ".", "directory holding BENCH_*.json files")
	maxRegress := flag.Float64("max-regress", 25, "max allowed ns/op regression in percent")
	flag.Parse()
	if *results == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: need -results")
		os.Exit(2)
	}

	measured, err := parseBenchOutput(*results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	base, err := loadBaselines(*baselines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		samples, ok := measured[name]
		if !ok {
			fmt.Printf("FAIL %-55s not in this run\n", name)
			failed = true
			continue
		}
		med := median(samples)
		b := base[name]
		delta := 100 * (med - b) / b
		status := "ok  "
		if delta > *maxRegress {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-55s baseline %12.0f ns/op  measured %12.0f ns/op  %+6.1f%%\n",
			status, name, b, med, delta)
	}
	for name := range measured {
		if _, ok := base[name]; !ok {
			fmt.Printf("NEW  %-55s %12.0f ns/op (no baseline)\n", name, median(measured[name]))
		}
	}
	if failed {
		fmt.Printf("benchcheck: missing baseline benchmark or regression beyond %.0f%% detected\n", *maxRegress)
		os.Exit(1)
	}
}

// parseBenchOutput extracts ns/op samples per benchmark name from the
// standard testing bench output, dropping the trailing -N procs suffix so
// names match baselines across machines.
func parseBenchOutput(path string) (map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Benchmark lines read: Name-N  iters  X ns/op  [more unit pairs].
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad ns/op in %q", path, line)
				}
				out[name] = append(out[name], v)
				break
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// loadBaselines reads every BENCH_*.json in dir, taking each benchmark's
// last history entry as its committed baseline.
func loadBaselines(dir string) (map[string]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json baselines under %s", dir)
	}
	out := make(map[string]float64)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for name, hist := range bf.Benchmarks {
			if len(hist) == 0 {
				continue
			}
			out[name] = hist[len(hist)-1].NsPerOp
		}
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

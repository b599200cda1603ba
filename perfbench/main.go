// Command perfbench is the repository's whole-job benchmark. It drives the
// system the way its users do: whole jobs through System.SubmitAsync and
// JobHandle.Wait, on a System configured as `manimal serve` configures it
// (journal on, result cache and scan sharing on, default slots). Inputs
// come from internal/workload, and every output is checked against an
// answer the benchmark computes itself from the generated rows.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload selective|aggregate|fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
// timed only from outside each layer's public functions, and the run's
// spans are written to the output directory. The process exits non-zero
// when a submission fails or an output is wrong. --break-expected corrupts
// one expected answer on purpose, so the output gate can be seen to fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"manimal"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type config struct {
	workload      string
	seed          int64
	seconds       int
	trace         bool
	outDir        string
	breakExpected bool
	// epochs is the number of set-ups per run, each followed by its share
	// of the timed phase; scale multiplies the input sizes. Tests lower
	// both.
	epochs int
	scale  float64
}

// epochSeconds is the length of one epoch's timed phase. A run has one
// epoch per epochSeconds of --seconds, so every epoch builds the same
// history whatever the run length, and a longer run adds set-ups (setup_s
// is their median) and independent histories rather than a longer one.
const epochSeconds = 5

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and writes spans; 0 reports end-to-end metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the work area and span files")
	fs.BoolVar(&cfg.breakExpected, "break-expected", false, "corrupt one expected answer (self-check: the run must fail)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if findWorkload(cfg.workload) == nil {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be positive, got %d", cfg.seconds)
	}
	cfg.trace = trace == 1
	cfg.epochs = cfg.seconds / epochSeconds
	if cfg.epochs < 1 {
		cfg.epochs = 1
	}
	return cfg, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) (int, error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	b, res, err := execute(cfg)
	if err != nil {
		return 1, err
	}
	b.printStamp(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d submissions failed or produced a wrong output", res.Failed, res.Attempted)
	}
	return 0, nil
}

// execute runs every epoch of the configured workload in a fresh work
// directory under cfg.outDir, removed before it returns.
func execute(cfg config) (*bench, result, error) {
	if err := selfCheckComparator(); err != nil {
		return nil, result{}, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, result{}, err
	}
	work, err := os.MkdirTemp(cfg.outDir, fmt.Sprintf("work-%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, result{}, err
	}
	defer os.RemoveAll(work)

	b := newBench(cfg, findWorkload(cfg.workload))
	b.info["filesystem"] = filesystemOf(work)
	for e := 0; e < cfg.epochs; e++ {
		if err := b.runEpoch(e, filepath.Join(work, fmt.Sprintf("epoch%d", e))); err != nil {
			return nil, result{}, fmt.Errorf("epoch %d: %w", e, err)
		}
	}
	res, err := b.result()
	return b, res, err
}

// printStamp writes the run's environment and sample counts, then every
// metric by name and unit, ahead of the JSON line.
func (b *bench) printStamp(w io.Writer, res result) {
	env := map[string]any{
		"workload":       b.cfg.workload,
		"seed":           b.cfg.seed,
		"seconds":        b.cfg.seconds,
		"trace":          b.cfg.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"system":         fmt.Sprintf("%+v", systemOptions),
		"slots":          b.sys.PoolStats().Slots,
		"epochs":         b.cfg.epochs,
		"input_bytes":    b.inputBytes,
		"input_rows":     b.inputRows,
		"samples":        len(b.jobs),
		"repeat_share":   b.repeatShare(),
		"variant_ms_p50": b.variantMedians(),
		"attempted":      res.Attempted,
		"failed":         res.Failed,
	}
	for k, v := range b.info {
		env[k] = v
	}
	raw, _ := json.Marshal(env)
	fmt.Fprintf(w, "# env %s\n", raw)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// filesystemOf names the filesystem holding dir, for the environment stamp.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// systemOptions is the configuration `manimal serve` uses with its default
// flags: journal on, result cache and scan sharing on, default slots.
var systemOptions = manimal.Options{Journal: true}

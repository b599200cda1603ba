package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"manimal"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// bench is one run of one workload. A run is several epochs; each epoch
// sets up from an empty directory (one setup_s sample), then runs its
// share of the timed phase on that fresh System. Pooling the epochs'
// samples averages over independent histories.
type bench struct {
	cfg config
	wl  *workloadDef

	// The current epoch's set-up.
	epoch      int
	sysDir     string
	dataDir    string
	outDir     string
	sys        *manimal.System
	inputs     []string // input record files
	inputBytes int64
	inputRows  int64
	buildTimes []float64 // seconds per BuildBestIndexes call

	setupTimes []float64 // seconds, one per epoch
	spaceAmps  []float64 // one per epoch, at its end
	timed      time.Duration
	t0         time.Time // start of the first timed phase: the span origin
	// info carries workload-specific facts for the environment stamp.
	info   map[string]any
	oracle any // workload-specific expected-answer state, loaded once

	mu    sync.Mutex
	jobs  []*job
	start time.Time // start of the current epoch's timed phase
	end   time.Time // last completion in the current epoch's timed phase
}

func newBench(cfg config, wl *workloadDef) *bench {
	return &bench{cfg: cfg, wl: wl, info: map[string]any{}}
}

// runEpoch sets up in dir, runs the epoch's timed phase and checks every
// output. The last epoch's directory is kept for the end-of-run metrics.
func (b *bench) runEpoch(epoch int, dir string) error {
	b.epoch = epoch
	b.sysDir = filepath.Join(dir, "sys")
	b.dataDir = filepath.Join(dir, "data")
	b.outDir = filepath.Join(dir, "out")
	b.inputs, b.inputBytes, b.buildTimes = nil, 0, nil
	start := time.Now()
	if err := b.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
	if b.oracle == nil {
		// Every epoch generates the same inputs from the seed, so the
		// expected answers are computed once, outside the timed spans.
		if err := b.wl.loadOracle(b); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}

	first := len(b.jobs)
	b.start = time.Now()
	b.end = b.start
	if epoch == 0 {
		b.t0 = b.start
	}
	b.wl.drive(b)
	b.timed += b.end.Sub(b.start)
	jobs := b.jobs[first:]
	if len(jobs) == 0 {
		return fmt.Errorf("epoch %d submitted no jobs", epoch)
	}

	if b.cfg.breakExpected && epoch == 0 {
		orig := jobs[0].expect
		jobs[0].expect = func() []string { return append(orig(), "perfbench\tdeliberately wrong expected line") }
	}
	for _, j := range jobs {
		if b.cfg.trace && !j.traced && j.h != nil {
			j.status = j.h.Status()
		}
		if j.err == nil {
			j.wrong = checkOutput(j.spec.OutputPath, j.expect())
		}
		if j.failed() {
			fmt.Fprintf(os.Stderr, "perfbench: job %s: submit/wait error: %v; output check: %v\n", j.spec.Name, j.err, j.wrong)
		}
		os.Remove(j.spec.OutputPath)
	}
	space, err := b.spaceAmp()
	if err != nil {
		return err
	}
	b.spaceAmps = append(b.spaceAmps, space)
	if epoch < b.cfg.epochs-1 {
		return os.RemoveAll(dir)
	}
	return nil
}

// quota sizes an epoch's timed phase: perSecond × seconds units of work
// (submissions, cycles or bursts) over the whole run, split evenly over the
// epochs. The rates are about the throughput on a 2-core machine when the
// benchmark was added, so a run measures for about --seconds. A fixed
// count fixes the history each epoch builds up, which job_ms_growth and
// space_amp depend on. An epoch that falls behind stops once four times
// its share of the seconds has passed.
func (b *bench) quota(perSecond float64) (int, time.Time) {
	n := int(perSecond*float64(b.cfg.seconds)/float64(b.cfg.epochs) + 0.5)
	if n < 1 {
		n = 1
	}
	share := time.Duration(b.cfg.seconds) * time.Second / time.Duration(b.cfg.epochs)
	return n, b.start.Add(4 * share)
}

// setup writes the inputs, opens the System and builds the workload's
// indexes — the span setup_s measures.
func (b *bench) setup() error {
	for _, d := range []string{b.dataDir, b.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if err := b.wl.writeInputs(b); err != nil {
		return fmt.Errorf("writing inputs: %w", err)
	}
	for _, in := range b.inputs {
		st, err := os.Stat(in)
		if err != nil {
			return err
		}
		b.inputBytes += st.Size()
	}
	sys, err := manimal.NewSystemWith(b.sysDir, systemOptions)
	if err != nil {
		return err
	}
	b.sys = sys
	for _, ix := range b.wl.indexes {
		start := time.Now()
		if _, err := b.sys.BuildBestIndexes(mustProgram(ix.name, ix.source), b.input(0)); err != nil {
			return fmt.Errorf("building indexes for %s: %w", ix.name, err)
		}
		b.buildTimes = append(b.buildTimes, time.Since(start).Seconds())
	}
	return nil
}

func (b *bench) input(i int) string { return b.inputs[i] }

// job is one submission.
type job struct {
	seq     int // submission order within the run
	epoch   int
	unit    int // tracing unit: traced runs trace the even units
	variant string
	spec    manimal.JobSpec
	repeat  bool // a generator-known repeat of an earlier submission
	traced  bool
	expect  func() []string // expected canonical output lines

	submitAt  time.Time
	submitRet time.Time
	doneAt    time.Time
	h         *manimal.JobHandle
	err       error
	status    manimal.JobStatus // read in traced runs only
	wrong     error             // output check failure
}

func (j *job) latency() time.Duration { return j.doneAt.Sub(j.submitAt) }
func (j *job) failed() bool           { return j.err != nil || j.wrong != nil }
func (j *job) cached() bool           { return j.status.Counters[ctrCacheHits] > 0 }

// newJob registers a submission over the epoch's input with a fresh output
// path.
func (b *bench) newJob(unit int, variant string, prog *manimal.Program, conf manimal.Conf, mapOnly bool, expect func() []string) *job {
	j := &job{unit: unit, variant: variant, expect: expect}
	j.spec = manimal.JobSpec{
		Inputs:  []manimal.InputSpec{{Path: b.input(0), Program: prog}},
		Conf:    conf,
		MapOnly: mapOnly,
	}
	b.register(j)
	return j
}

// repeatJob registers a resubmission of an earlier job's exact spec under a
// new name and output path.
func (b *bench) repeatJob(unit int, of *job) *job {
	j := &job{unit: unit, variant: of.variant, expect: of.expect, repeat: true, spec: of.spec}
	b.register(j)
	return j
}

func (b *bench) register(j *job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j.seq = len(b.jobs)
	j.epoch = b.epoch
	j.traced = b.cfg.trace && j.unit%2 == 0
	j.spec.Name = fmt.Sprintf("%s-%d", j.variant, j.seq)
	j.spec.OutputPath = filepath.Join(b.outDir, fmt.Sprintf("%06d.kv", j.seq))
	b.jobs = append(b.jobs, j)
}

func (b *bench) submit(j *job) {
	j.submitAt = time.Now()
	j.h, j.err = b.sys.SubmitAsync(context.Background(), j.spec)
	j.submitRet = time.Now()
}

// wait blocks until the job is terminal. Traced jobs snapshot their status
// at once; in traced runs the others are snapshotted after the epoch.
func (b *bench) wait(j *job) {
	if j.h != nil {
		_, j.err = j.h.Wait()
	}
	j.doneAt = time.Now()
	if j.traced && j.h != nil {
		j.status = j.h.Status()
	}
	if !b.cfg.trace {
		// Untraced runs read nothing more from the job; dropping the
		// handle keeps the benchmark's own memory out of max_rss_mb.
		j.h = nil
	}
	b.mu.Lock()
	if j.doneAt.After(b.end) {
		b.end = j.doneAt
	}
	b.mu.Unlock()
}

// result gathers the run's outcome and the metrics of its mode.
func (b *bench) result() (result, error) {
	res := result{Attempted: len(b.jobs), Failed: b.countFailed()}
	res.Correct = res.Failed == 0
	var err error
	if b.cfg.trace {
		res.Metrics, err = b.layerMetrics()
	} else {
		res.Metrics = b.endToEndMetrics()
	}
	return res, err
}

// endToEndMetrics computes the user-visible metrics of an untraced run.
func (b *bench) endToEndMetrics() map[string]metric {
	var lat []float64
	for _, j := range b.jobs {
		lat = append(lat, ms(j.latency()))
	}
	b.info["job_ms_p99"] = quantile(lat, 0.99)
	b.info["failed_frac"] = float64(b.countFailed()) / float64(len(b.jobs))
	return map[string]metric{
		"job_ms_p50":    {quantile(lat, 0.5), "ms"},
		"job_ms_p90":    {quantile(lat, 0.9), "ms"},
		"jobs_per_s":    {float64(len(b.jobs)) / b.timed.Seconds(), "1/s"},
		"job_ms_growth": {b.growth(), "ratio"},
		"setup_s":       {quantile(b.setupTimes, 0.5), "s"},
		"max_rss_mb":    {maxRSSMB(), "MB"},
		"space_amp":     {quantile(b.spaceAmps, 0.5), "ratio"},
	}
}

func (b *bench) countFailed() int {
	n := 0
	for _, j := range b.jobs {
		if j.failed() {
			n++
		}
	}
	return n
}

func (b *bench) repeatShare() float64 {
	n := 0
	for _, j := range b.jobs {
		if j.repeat {
			n++
		}
	}
	return float64(n) / float64(len(b.jobs))
}

// variantMedians is the median latency of each job kind, in ms.
func (b *bench) variantMedians() map[string]float64 {
	byVariant := map[string][]float64{}
	for _, j := range b.jobs {
		byVariant[j.variant] = append(byVariant[j.variant], ms(j.latency()))
	}
	med := map[string]float64{}
	for v, xs := range byVariant {
		med[v] = quantile(xs, 0.5)
	}
	return med
}

// normalizedLatencies divides each job's latency by the median latency of
// its kind, so workloads that mix job kinds compare like with like.
func (b *bench) normalizedLatencies() []float64 {
	med := b.variantMedians()
	out := make([]float64, len(b.jobs))
	for i, j := range b.jobs {
		out[i] = ms(j.latency()) / med[j.variant]
	}
	return out
}

// growth is the median latency of the last quarter of each epoch's
// submissions over that of the first quarter, pooled over epochs, on
// kind-normalized latencies (for a single-kind workload, the ratio of the
// raw medians). Jobs register in submission order, so each epoch's slice
// of b.jobs is its history in order.
func (b *bench) growth() float64 {
	norm := b.normalizedLatencies()
	var first, last []float64
	for lo := 0; lo < len(b.jobs); {
		hi := lo
		for hi < len(b.jobs) && b.jobs[hi].epoch == b.jobs[lo].epoch {
			hi++
		}
		q := (hi - lo) / 4
		first = append(first, norm[lo:lo+q]...)
		last = append(last, norm[hi-q:hi]...)
		lo = hi
	}
	if len(first) == 0 {
		return 1
	}
	return quantile(last, 0.5) / quantile(first, 0.5)
}

// spaceAmp is the bytes under the System directory plus the index files
// next to the inputs, over the input bytes.
func (b *bench) spaceAmp() (float64, error) {
	sysBytes, err := duBytes(b.sysDir)
	if err != nil {
		return 0, err
	}
	dataBytes, err := duBytes(b.dataDir)
	if err != nil {
		return 0, err
	}
	return float64(sysBytes+dataBytes) / float64(b.inputBytes), nil
}

func duBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// line renders one output pair canonically: key, tab, value, where a
// record value lists its fields separated by '|'.
func line(k serde.Datum, v interp.EmitValue) string {
	if !v.IsRecord() {
		return k.String() + "\t" + v.D.String()
	}
	parts := make([]string, v.Rec.Schema().NumFields())
	for i := range parts {
		parts[i] = v.Rec.At(i).String()
	}
	return k.String() + "\t" + strings.Join(parts, "|")
}

// checkOutput compares a job's output file, as a multiset of canonical
// lines, with the expected lines.
func checkOutput(path string, want []string) error {
	pairs, err := manimal.ReadOutput(path)
	if err != nil {
		return err
	}
	got := make([]string, len(pairs))
	for i, p := range pairs {
		got[i] = line(p.Key, p.Value)
	}
	return compareLines(got, want)
}

func compareLines(got, want []string) error {
	got = append([]string(nil), got...)
	want = append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("output line %d is %q, want %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("output has %d lines, want %d", len(got), len(want))
	}
	return nil
}

// selfCheckComparator shows on every run that the output gate can fail: a
// changed, a missing and an extra line must each be rejected.
func selfCheckComparator() error {
	want := []string{"a\t1", "b\t2"}
	for _, got := range [][]string{{"a\t1", "b\t3"}, {"a\t1"}, {"a\t1", "b\t2", "b\t2"}} {
		if compareLines(got, want) == nil {
			return fmt.Errorf("self-check: output gate accepted %q for %q", got, want)
		}
	}
	if err := compareLines([]string{"b\t2", "a\t1"}, want); err != nil {
		return fmt.Errorf("self-check: output gate rejected a reordered correct output: %v", err)
	}
	return nil
}

func mustProgram(name, source string) *manimal.Program {
	p, err := manimal.ParseProgram(name, source)
	if err != nil {
		panic(fmt.Sprintf("perfbench: program %s: %v", name, err))
	}
	return p
}

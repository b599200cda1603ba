package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"manimal"
	"manimal/internal/analyzer"
	"manimal/internal/catalog"
	"manimal/internal/fabric"
	"manimal/internal/interp"
	"manimal/internal/mapreduce"
	"manimal/internal/optimizer"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

const (
	ctrCacheHits   = mapreduce.CtrCacheHits
	ctrCacheMisses = mapreduce.CtrCacheMisses
	// replayJobs bounds how many traced jobs get their layers replayed
	// after the timed phase; replayScansPerVariant bounds the full scans.
	replayJobs            = 16
	replayScansPerVariant = 2
	replayRepeats         = 4
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// from the start of the timed phase; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent, jobSeq int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: jobSeq, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn and records it as a span.
func (t *tracer) timed(parent, jobSeq int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, jobSeq, name, start, end)
	return end.Sub(start)
}

// selfTimes returns, per span name, the self time per job that has such a
// span: each span's duration minus the part of it its children cover,
// summed, over the number of distinct jobs.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := map[string]time.Duration{}
	jobs := map[string]map[int]bool{}
	for _, s := range t.spans {
		total[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		if jobs[s.Name] == nil {
			jobs[s.Name] = map[int]bool{}
		}
		jobs[s.Name][s.Job] = true
	}
	for name := range total {
		total[name] /= time.Duration(len(jobs[name]))
	}
	return total
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max64(k.Start, parent.Start), min64(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// layerMetrics computes the per-layer metrics of a traced run: span-derived
// phase times, counters and pool statistics read from public status, and
// replays of each layer's public functions after the timed phase.
func (b *bench) layerMetrics() (map[string]metric, error) {
	tr := &tracer{t0: b.t0}
	traced := 0
	for _, j := range b.jobs {
		if !j.traced {
			continue
		}
		traced++
		root := tr.add(-1, j.seq, "job", j.submitAt, j.doneAt)
		tr.add(root, j.seq, "manimal.submit", j.submitAt, j.submitRet)
		wait := tr.add(root, j.seq, "manimal.wait", j.submitRet, j.doneAt)
		if first, ok := firstAttempt(j.status); ok && first.After(j.submitRet) {
			tr.add(wait, j.seq, "mapreduce.admission_wait", j.submitRet, first)
		}
		for _, a := range j.status.Attempts {
			tr.add(wait, j.seq, "mapreduce."+string(a.Phase), a.Start, a.Start.Add(a.Duration))
		}
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// manimal: submission and result-cache latency.
	var submit, hitLat []float64
	for _, j := range b.jobs {
		submit = append(submit, ms(j.submitRet.Sub(j.submitAt)))
		if j.repeat {
			hitLat = append(hitLat, ms(j.latency()))
		}
	}
	put("manimal.submit_ms_p50", quantile(submit, 0.5), "ms")
	put("manimal.cache_hit_ms_p50", quantile(hitLat, 0.5), "ms")

	// Counters and per-phase attempt time over every job.
	ctr := map[string]int64{}
	var admission []float64
	phaseMS := map[mapreduce.Phase][]float64{}
	attempts, succeeded, executed, indexPlans := 0, 0, 0, 0
	for _, j := range b.jobs {
		for k, v := range j.status.Counters {
			ctr[k] += v
		}
		if j.h == nil || j.cached() {
			continue
		}
		executed++
		if k := j.h.Inputs()[0].Plan.Kind; k == optimizer.PlanBTree || k == optimizer.PlanRecordFile {
			indexPlans++
		}
		if first, ok := firstAttempt(j.status); ok {
			admission = append(admission, ms(first.Sub(j.submitRet)))
		}
		byPhase := map[mapreduce.Phase]time.Duration{}
		for _, a := range j.status.Attempts {
			byPhase[a.Phase] += a.Duration
			attempts++
			if a.Outcome == mapreduce.AttemptSucceeded {
				succeeded++
			}
		}
		for p, d := range byPhase {
			phaseMS[p] = append(phaseMS[p], ms(d))
		}
	}
	put("catalog.cache_hit_ratio", ratio(ctr[ctrCacheHits], ctr[ctrCacheHits]+ctr[ctrCacheMisses]), "ratio")
	put("storage.skip_ratio", ratio(ctr[mapreduce.CtrBlocksSkipped], ctr[mapreduce.CtrBlocksSkipped]+ctr[mapreduce.CtrBlocksRead]), "ratio")
	put("storage.bytes_read_per_input_byte", ratio(ctr[mapreduce.CtrInputBytesRead], int64(executed)*b.inputBytes), "ratio")
	put("optimizer.index_plan_ratio", ratio(int64(indexPlans), int64(executed)), "ratio")
	put("predicate.prefilter_ratio", ratio(ctr[mapreduce.CtrRowsFiltered], ctr[mapreduce.CtrRowsFiltered]+ctr[mapreduce.CtrMapInputRecords]), "ratio")
	put("mapreduce.admission_wait_ms_p50", quantile(admission, 0.5), "ms")
	for _, p := range []mapreduce.Phase{mapreduce.PhasePlan, mapreduce.PhaseMap, mapreduce.PhaseReduce, mapreduce.PhaseCommit} {
		put("mapreduce."+string(p)+"_ms_p50", quantile(phaseMS[p], 0.5), "ms")
	}
	put("mapreduce.spills_per_map_task", ratio(ctr[mapreduce.CtrSpills], ctr[mapreduce.CtrMapTasks]), "count")
	put("mapreduce.map_output_bytes_per_row", ratio(ctr[mapreduce.CtrMapOutputBytes], ctr[mapreduce.CtrMapOutputRecords]), "B")
	put("mapreduce.attempt_success_ratio", ratio(int64(succeeded), int64(attempts)), "ratio")
	put("mapreduce.pool_high_water", float64(b.sys.PoolStats().HighWater), "count")
	put("share.scans_shared_per_job", ratio(ctr[mapreduce.CtrScansShared], int64(executed)), "count")

	// Set-up, space and coordinator state at the end of the run.
	put("indexgen.build_s", sum(b.buildTimes), "s")
	dataBytes, err := duBytes(b.dataDir)
	if err != nil {
		return nil, err
	}
	put("indexgen.index_bytes_per_input_byte", float64(dataBytes-b.inputBytes)/float64(b.inputBytes), "ratio")
	segs, err := os.ReadDir(filepath.Join(b.sysDir, "journal"))
	if err != nil {
		return nil, err
	}
	put("journal.segments", float64(len(segs)), "count")
	put("catalog.entries", float64(len(b.sys.Catalog().All())), "count")

	// Layer replays, after the timed phase, under the sampled jobs' IDs.
	rp, err := b.replay(tr)
	if err != nil {
		return nil, err
	}
	put("catalog.for_input_ms", quantile(rp.forInput, 0.5), "ms")
	put("storage.open_ms_p50", quantile(rp.open, 0.5), "ms")
	put("analyzer.analyze_ms_p50", quantile(rp.analyze, 0.5), "ms")
	put("optimizer.choose_ms_p50", quantile(rp.choose, 0.5), "ms")
	put("storage.scan_mb_per_s", perUnit(float64(rp.scanBytes)/1e6, rp.scanTime.Seconds()), "MB/s")
	put("interp.map_ns_per_row", perUnit(float64(rp.mapTime.Nanoseconds()), float64(rp.mapRows)), "ns")

	// Self time per layer and job, and the cost of tracing itself.
	self := tr.selfTimes()
	for _, name := range spanLayers {
		put("self_ms."+name, ms(self[name]), "ms")
	}
	put("trace.overhead_ratio", b.tracingOverhead(), "ratio")
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	b.info["spans_file"] = path
	b.info["spans"] = len(tr.spans)
	b.info["traced_jobs"] = traced
	b.info["jobs_executed"] = executed
	b.info["plans"] = b.planSummary()
	return m, nil
}

// planSummary names the plan each job kind executed with, and the index
// entries left in the catalog.
func (b *bench) planSummary() map[string]string {
	out := map[string]string{}
	for _, j := range b.jobs {
		if j.h == nil || j.cached() {
			continue
		}
		if _, ok := out[j.variant]; !ok {
			p := j.h.Inputs()[0].Plan
			out[j.variant] = fmt.Sprintf("%s %v %s", p.Kind, p.Applied, filepath.Base(p.IndexPath))
		}
	}
	for _, e := range b.sys.Catalog().All() {
		if e.Kind != catalog.KindResultCache {
			out["index "+filepath.Base(e.IndexPath)] = fmt.Sprintf("%s %v", e.Kind, e.Fields)
		}
	}
	return out
}

// spanLayers are the span names whose self time is reported.
var spanLayers = []string{
	"manimal.submit", "manimal.wait", "mapreduce.admission_wait",
	"mapreduce.plan", "mapreduce.map", "mapreduce.reduce", "mapreduce.commit",
	"storage.open", "analyzer.analyze", "optimizer.choose", "catalog.for_input",
	"storage.scan", "interp.map",
}

func firstAttempt(st manimal.JobStatus) (time.Time, bool) {
	var first time.Time
	for _, a := range st.Attempts {
		if first.IsZero() || a.Start.Before(first) {
			first = a.Start
		}
	}
	return first, !first.IsZero()
}

func ratio(num, den int64) float64 { return perUnit(float64(num), float64(den)) }

// perUnit is num/den, or 0 when there is nothing to divide by.
func perUnit(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracingOverhead compares traced with untraced units of the same run: the
// median variant-normalized latency of traced jobs over that of the others.
func (b *bench) tracingOverhead() float64 {
	norm := b.normalizedLatencies()
	var on, off []float64
	for i, j := range b.jobs {
		if j.traced {
			on = append(on, norm[i])
		} else {
			off = append(off, norm[i])
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 1
	}
	return quantile(on, 0.5) / quantile(off, 0.5)
}

type replayed struct {
	open, analyze, choose, forInput []float64
	scanBytes                       int64
	scanTime, mapTime               time.Duration
	mapRows                         int64
}

// replay times each layer's public entry points on a sample of the last
// epoch's traced jobs (whose System and files are still there), each under
// a "replay" span carrying the job's ID.
func (b *bench) replay(tr *tracer) (*replayed, error) {
	var sample []*job
	for _, j := range b.jobs {
		if j.traced && j.h != nil && j.epoch == b.epoch {
			sample = append(sample, j)
		}
	}
	if len(sample) > replayJobs {
		step := float64(len(sample)) / replayJobs
		picked := make([]*job, replayJobs)
		for i := range picked {
			picked[i] = sample[int(float64(i)*step)]
		}
		sample = picked
	}
	rp := &replayed{}
	scans := map[string]int{}
	for _, j := range sample {
		in := j.spec.Inputs[0]
		var err error
		now := time.Now()
		root := tr.add(-1, j.seq, "replay", now, now) // end set below
		var schema *serde.Schema
		var desc *analyzer.Descriptor
		var entries []manimal.CatalogEntry
		var plan *optimizer.Plan
		for r := 0; r < replayRepeats; r++ {
			rp.open = append(rp.open, ms(tr.timed(root, j.seq, "storage.open", func() {
				var rd *storage.Reader
				if rd, err = storage.Open(in.Path); err == nil {
					schema = rd.Schema()
					rd.Close()
				}
			})))
			if err != nil {
				return nil, err
			}
			rp.analyze = append(rp.analyze, ms(tr.timed(root, j.seq, "analyzer.analyze", func() {
				desc, err = analyzer.Analyze(in.Program.Parsed(), schema)
			})))
			if err != nil {
				return nil, err
			}
			rp.forInput = append(rp.forInput, ms(tr.timed(root, j.seq, "catalog.for_input", func() {
				entries = b.sys.Catalog().ForInput(in.Path)
			})))
			rp.choose = append(rp.choose, ms(tr.timed(root, j.seq, "optimizer.choose", func() {
				plan = optimizer.Choose(desc, in.Path, schema, entries, j.spec.Conf, optimizer.Options{})
			})))
		}
		if scans[j.variant] < replayScansPerVariant {
			scans[j.variant]++
			if err := b.replayScan(tr, root, j, plan, rp); err != nil {
				return nil, err
			}
		}
		tr.spans[root].End = time.Since(tr.t0).Nanoseconds()
	}
	return rp, nil
}

// replayScan reads the input the plan names, as the job's map tasks would
// but on one goroutine, and runs the job's Map over what it reads: a
// Reader.ScanBatch pass with the plan's pushdown and field mask for
// record-file plans, the plan's key ranges for B+Tree plans.
func (b *bench) replayScan(tr *tracer, root int, j *job, plan *optimizer.Plan, rp *replayed) error {
	newStart := time.Now()
	ex, err := interp.New(j.spec.Inputs[0].Program.Parsed())
	if err != nil {
		return err
	}
	mapT := time.Since(newStart)
	var rows int64
	ctx := &interp.Context{
		Conf:    j.spec.Conf,
		Emit:    func(serde.Datum, interp.EmitValue) error { return nil },
		Log:     func(string) {},
		Counter: func(string, int64) {},
	}
	var scanT time.Duration
	var bytesRead int64
	scanStart := time.Now()
	if plan.Kind == optimizer.PlanBTree {
		in, err := fabric.InputForPlan(plan)
		if err != nil {
			return err
		}
		splits, err := in.Splits(1)
		if err != nil {
			in.Close()
			return err
		}
		for _, sp := range splits {
			it, err := sp.Open()
			if err != nil {
				in.Close()
				return err
			}
			for {
				t0 := time.Now()
				ok := it.Next()
				t1 := time.Now()
				scanT += t1.Sub(t0)
				if !ok {
					break
				}
				err = ex.InvokeMap(it.Key(), it.Record(), ctx)
				mapT += time.Since(t1)
				rows++
				if err != nil {
					break
				}
			}
			if err == nil {
				err = it.Err()
			}
			it.Close()
			if err != nil {
				in.Close()
				return err
			}
		}
		bytesRead = in.BytesRead()
		in.Close()
	} else {
		path := plan.InputPath
		if plan.Kind == optimizer.PlanRecordFile {
			path = plan.IndexPath
		}
		r, err := storage.Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		r.DirectCodes = plan.DirectCodes
		sc, err := r.ScanBatch(0, r.NumBlocks(), plan.Pushdown)
		if err != nil {
			return err
		}
		for {
			t0 := time.Now()
			ok := sc.Next()
			t1 := time.Now()
			scanT += t1.Sub(t0)
			if !ok {
				break
			}
			batch := sc.Batch()
			if err := ex.InvokeMapBatch(batch, ctx); err != nil {
				return err
			}
			mapT += time.Since(t1)
			rows += int64(len(batch.Sel()))
		}
		if err := sc.Err(); err != nil {
			return err
		}
		bytesRead = r.BytesRead()
	}
	// The two layers interleave; their spans are laid end to end inside
	// the pass so each carries its own measured total.
	tr.add(root, j.seq, "storage.scan", scanStart, scanStart.Add(scanT))
	tr.add(root, j.seq, "interp.map", scanStart.Add(scanT), scanStart.Add(scanT+mapT))
	rp.scanBytes += bytesRead
	rp.scanTime += scanT
	rp.mapTime += mapT
	rp.mapRows += rows
	return nil
}

func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

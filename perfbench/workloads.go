package main

import (
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"manimal"
	"manimal/internal/interp"
	"manimal/internal/serde"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// workloadDef is one set of inputs, programs and client behaviour.
type workloadDef struct {
	name string
	// indexes are the programs BuildBestIndexes runs during set-up, in
	// order, the way a user would index for the jobs they run.
	indexes     []indexBuild
	writeInputs func(b *bench) error
	loadOracle  func(b *bench) error
	// drive runs one epoch's timed phase and returns once every
	// submission is terminal.
	drive func(b *bench)
}

type indexBuild struct{ name, source string }

var workloads = []*workloadDef{selective, aggregate, fanout}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func scaled(b *bench, n int) int {
	m := int(float64(n) * b.cfg.scale)
	if m < 100 {
		m = 100
	}
	return m
}

func emitLine(k serde.Datum, v serde.Datum) string { return line(k, interp.EmitValue{D: v}) }

// scanRows streams every record of an input through fn on the row path,
// decoding only the named fields. Strings fn keeps must be cloned.
func scanRows(path string, fields []string, fn func(r *serde.Record)) error {
	r, err := storage.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	sc, err := r.ScanPushdown(0, r.NumBlocks(), &storage.Pushdown{Fields: fields})
	if err != nil {
		return err
	}
	for sc.Next() {
		fn(sc.Record())
	}
	return sc.Err()
}

// ---- selective -----------------------------------------------------------

const (
	selectiveRows    = 100_000
	selectiveContent = 512
	selectiveClients = 2
	// selectiveRepeatEvery: one submission in this many (after a client's
	// first) repeats one of that client's own earlier submissions.
	selectiveRepeatEvery = 4
	// selectivePerSecond sizes the run (see bench.quota).
	selectivePerSecond = 120
)

// rangeSelection is the Appendix D projection query (programs.ProjectionQuery)
// with the threshold made a [lo, hi) range, so each submission keeps a
// chosen 0.1-1% of the rows.
const rangeSelection = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") >= ctx.ConfInt("lo") && v.Int("rank") < ctx.ConfInt("hi") {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`

var selective = &workloadDef{
	name:    "selective",
	indexes: []indexBuild{{"range-selection", rangeSelection}},
	writeInputs: func(b *bench) error {
		path := filepath.Join(b.dataDir, "webpages.rec")
		n := scaled(b, selectiveRows)
		b.inputs, b.inputRows = []string{path}, int64(n)
		return workload.NewGen(b.cfg.seed).WriteWebPages(path, n, selectiveContent)
	},
	loadOracle: func(b *bench) error {
		byRank := make([][]string, workload.RankMax)
		err := scanRows(b.input(0), []string{"url", "rank"}, func(r *serde.Record) {
			rank := r.Int("rank")
			byRank[rank] = append(byRank[rank], string([]byte(r.Str("url"))))
		})
		b.oracle = byRank
		return err
	},
	drive: func(b *bench) {
		byRank := b.oracle.([][]string)
		prog := mustProgram("range-selection", rangeSelection)
		n, stop := b.quota(selectivePerSecond)
		perClient := n / selectiveClients
		var wg sync.WaitGroup
		for c := 0; c < selectiveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(b.cfg.seed*7919 + int64(100*b.epoch+c)))
				var own []*job
				seen := map[[2]int64]bool{}
				for i := 0; i < perClient && time.Now().Before(stop); i++ {
					var j *job
					if len(own) > 0 && rnd.Intn(selectiveRepeatEvery) == 0 {
						j = b.repeatJob(i, own[rnd.Intn(len(own))])
					} else {
						// Clients draw lo from disjoint residues, so no
						// two distinct submissions share a cache key.
						var lo, hi int64
						for {
							width := int64(10 + rnd.Intn(91)) // 0.1%-1% of ranks
							lo = int64(c) + int64(selectiveClients)*rnd.Int63n((workload.RankMax-width)/selectiveClients)
							hi = lo + width
							if !seen[[2]int64{lo, hi}] {
								seen[[2]int64{lo, hi}] = true
								break
							}
						}
						conf := manimal.Conf{"lo": manimal.Int(lo), "hi": manimal.Int(hi)}
						j = b.newJob(i, "range", prog, conf, true, func() []string {
							var out []string
							for r := lo; r < hi; r++ {
								for _, u := range byRank[r] {
									out = append(out, emitLine(serde.String(u), serde.Int(r)))
								}
							}
							return out
						})
						own = append(own, j)
					}
					b.submit(j)
					b.wait(j)
				}
			}(c)
		}
		wg.Wait()
		b.info["clients"] = selectiveClients
	},
}

// ---- UserVisits programs (aggregate, fanout) -------------------------------

// Each aggregation reads a Reduce-side parameter ("min"), so every
// submission has its own cache key while the map side — and so the plan —
// stays the paper's.

// revenueByIP is the paper's Benchmark 2 (programs.Benchmark2Aggregation):
// projection of sourceIP and adRevenue, delta on the numeric field.
const revenueByIP = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("sourceIP"), v.Int("adRevenue"))
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	if sum >= ctx.ConfInt("min") {
		ctx.Emit(key, sum)
	}
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// durationByURL is the Table 6 direct-operation query
// (programs.CompressionQuery): destURL is only a group-by key, so the job
// can run on dictionary codes.
const durationByURL = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("destURL"), v.Int("duration"))
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	if sum >= ctx.ConfInt("min") {
		ctx.Emit(0, sum)
	}
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// recordsByCountry groups whole records: every field crosses the shuffle,
// so it spills, merges and reduces the most bytes.
const recordsByCountry = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("countryCode"), v)
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	revenue := 0
	for values.Next() {
		n = n + 1
		revenue = revenue + values.FieldInt("adRevenue")
	}
	if n >= ctx.ConfInt("min") {
		ctx.Emit(key, revenue)
	}
}
`

// visitDateRange is a zone-prunable selection on the non-decreasing
// visitDate (the filter side of the paper's Benchmark 3), map-only.
const visitDateRange = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("lo") && v.Int("visitDate") < ctx.ConfInt("hi") {
		ctx.Emit(v.Str("sourceIP"), v.Int("adRevenue"))
	}
}
`

// longVisits is a map-only filter that writes whole records: a residual
// row filter with a large output commit.
const longVisits = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("duration") >= ctx.ConfInt("minDur") {
		ctx.Emit(v.Str("destURL"), v)
	}
}
`

const (
	aggregateRows = 300_000
	fanoutRows    = 400_000
	// aggregateCyclesPerSecond and fanoutBurstsPerSecond size the runs
	// (see bench.quota).
	aggregateCyclesPerSecond = 1.0
	fanoutBurstsPerSecond    = 1.4
	visitURLs                = 10_000
	// longVisitsFrom is the lowest minDur longVisits draws; the oracle keeps
	// the rows at or above it.
	longVisitsFrom = 3300
	longVisitsTo   = 3420
)

// visitsOracle holds the expected answers of the UserVisits programs,
// computed from the generated rows.
type visitsOracle struct {
	revByIP        map[string]int64
	durByURL       map[string]int64
	revByCountry   map[string]int64
	countByCountry map[string]int64
	// Per-row columns for the date-range query (fanout only).
	dates []int64
	ips   []string
	revs  []int64
	// Rows with duration >= longVisitsFrom (fanout only).
	long []longVisit
}

type longVisit struct {
	duration int64
	line     string
}

func writeVisits(b *bench, rows int) error {
	path := filepath.Join(b.dataDir, "uservisits.rec")
	n := scaled(b, rows)
	b.inputs, b.inputRows = []string{path}, int64(n)
	return workload.NewGen(b.cfg.seed).WriteUserVisits(path, n, visitURLs)
}

func loadVisits(b *bench, perRow bool) error {
	o := &visitsOracle{
		revByIP: map[string]int64{}, durByURL: map[string]int64{},
		revByCountry: map[string]int64{}, countByCountry: map[string]int64{},
	}
	intern := map[string]string{}
	keep := func(s string) string {
		if v, ok := intern[s]; ok {
			return v
		}
		v := string([]byte(s))
		intern[v] = v
		return v
	}
	err := scanRows(b.input(0), nil, func(r *serde.Record) {
		ip, url, cc := keep(r.Str("sourceIP")), keep(r.Str("destURL")), keep(r.Str("countryCode"))
		rev, dur, date := r.Int("adRevenue"), r.Int("duration"), r.Int("visitDate")
		o.revByIP[ip] += rev
		o.durByURL[url] += dur
		o.revByCountry[cc] += rev
		o.countByCountry[cc]++
		if perRow {
			o.dates = append(o.dates, date)
			o.ips = append(o.ips, ip)
			o.revs = append(o.revs, rev)
			if dur >= longVisitsFrom {
				o.long = append(o.long, longVisit{dur, line(serde.String(url), interp.EmitValue{Rec: r})})
			}
		}
	})
	b.oracle = o
	return err
}

func (o *visitsOracle) revenueByIP(min int64) []string {
	var out []string
	for ip, s := range o.revByIP {
		if s >= min {
			out = append(out, emitLine(serde.String(ip), serde.Int(s)))
		}
	}
	return out
}

func (o *visitsOracle) durationByURL(min int64) []string {
	var out []string
	for _, s := range o.durByURL {
		if s >= min {
			out = append(out, emitLine(serde.Int(0), serde.Int(s)))
		}
	}
	return out
}

func (o *visitsOracle) recordsByCountry(min int64) []string {
	var out []string
	for cc, n := range o.countByCountry {
		if n >= min {
			out = append(out, emitLine(serde.String(cc), serde.Int(o.revByCountry[cc])))
		}
	}
	return out
}

func (o *visitsOracle) dateRange(lo, hi int64) []string {
	var out []string
	for i := sort.Search(len(o.dates), func(i int) bool { return o.dates[i] >= lo }); i < len(o.dates) && o.dates[i] < hi; i++ {
		out = append(out, emitLine(serde.String(o.ips[i]), serde.Int(o.revs[i])))
	}
	return out
}

func (o *visitsOracle) longVisits(minDur int64) []string {
	var out []string
	for _, v := range o.long {
		if v.duration >= minDur {
			out = append(out, v.line)
		}
	}
	return out
}

// variant is one parameterized job kind of a UserVisits workload.
type variant struct {
	name    string
	prog    *manimal.Program
	mapOnly bool
	// next draws the next submission's conf and its expected answer.
	next func() (manimal.Conf, func() []string)
}

// minVariant parameterizes an aggregation by its Reduce-side "min". Drawn
// from [0, 1000), min lies far below nearly every group's total, so it
// changes the cache key and not the work.
func minVariant(name, source string, rnd *rand.Rand, expect func(min int64) []string) variant {
	mins := newUniqueInts(rnd, 0, 1000)
	return variant{name: name, prog: mustProgram(name, source), next: func() (manimal.Conf, func() []string) {
		m := mins.next()
		return manimal.Conf{"min": manimal.Int(m)}, func() []string { return expect(m) }
	}}
}

// ---- aggregate -----------------------------------------------------------

var aggregate = &workloadDef{
	name: "aggregate",
	indexes: []indexBuild{
		{"records-by-country", recordsByCountry},
		{"duration-by-url", durationByURL},
		{"revenue-by-ip", revenueByIP},
	},
	writeInputs: func(b *bench) error { return writeVisits(b, aggregateRows) },
	loadOracle:  func(b *bench) error { return loadVisits(b, false) },
	drive: func(b *bench) {
		o := b.oracle.(*visitsOracle)
		rnd := rand.New(rand.NewSource(b.cfg.seed*104729 + int64(b.epoch)))
		vs := []variant{
			minVariant("records-by-country", recordsByCountry, rnd, o.recordsByCountry),
			minVariant("duration-by-url", durationByURL, rnd, o.durationByURL),
			minVariant("revenue-by-ip", revenueByIP, rnd, o.revenueByIP),
		}
		// One client, one job at a time, in whole cycles so every run holds
		// the same mix.
		cycles, stop := b.quota(aggregateCyclesPerSecond)
		for cycle := 0; cycle < cycles && time.Now().Before(stop); cycle++ {
			for _, v := range vs {
				conf, expect := v.next()
				j := b.newJob(cycle, v.name, v.prog, conf, v.mapOnly, expect)
				b.submit(j)
				b.wait(j)
			}
		}
	},
}

// ---- fanout --------------------------------------------------------------

var fanout = &workloadDef{
	name:        "fanout",
	writeInputs: func(b *bench) error { return writeVisits(b, fanoutRows) },
	loadOracle:  func(b *bench) error { return loadVisits(b, true) },
	drive: func(b *bench) {
		o := b.oracle.(*visitsOracle)
		rnd := rand.New(rand.NewSource(b.cfg.seed*15485863 + int64(b.epoch)))
		first, last := o.dates[0], o.dates[len(o.dates)-1]
		width := (last - first) / 100 // about 1% of the rows
		los := newUniqueInts(rnd, first, last-width)
		minDurs := newUniqueInts(rnd, longVisitsFrom, longVisitsTo)
		dateProg := mustProgram("visit-date-range", visitDateRange)
		longProg := mustProgram("long-visits", longVisits)
		vs := []variant{
			{name: "visit-date-range", prog: dateProg, mapOnly: true, next: func() (manimal.Conf, func() []string) {
				lo := los.next()
				return manimal.Conf{"lo": manimal.Int(lo), "hi": manimal.Int(lo + width)},
					func() []string { return o.dateRange(lo, lo+width) }
			}},
			minVariant("revenue-by-ip", revenueByIP, rnd, o.revenueByIP),
			minVariant("duration-by-url", durationByURL, rnd, o.durationByURL),
			{name: "long-visits", prog: longProg, mapOnly: true, next: func() (manimal.Conf, func() []string) {
				m := minDurs.next()
				return manimal.Conf{"minDur": manimal.Int(m)}, func() []string { return o.longVisits(m) }
			}},
		}
		// One generator: each burst submits all four jobs, then waits for
		// all four; each job's latency ends when its own Wait returns.
		bursts, stop := b.quota(fanoutBurstsPerSecond)
		for burst := 0; burst < bursts && time.Now().Before(stop); burst++ {
			var wg sync.WaitGroup
			for _, v := range vs {
				conf, expect := v.next()
				j := b.newJob(burst, v.name, v.prog, conf, v.mapOnly, expect)
				b.submit(j)
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.wait(j)
				}()
			}
			wg.Wait()
		}
	},
}

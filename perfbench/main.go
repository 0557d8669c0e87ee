// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time from a seed, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output; the lines before it
// give the host, the error rate and each metric by name and unit.
//
//	bash perfbench/run.sh --workload engine-sparse --seed 1 --seconds 45 --trace 0
//
// Every workload is a closed loop of two clients over a job list that a
// pass runs twice: cold (every cache empty) and warm (every enabled
// cache filled). engine-sparse submits one-cell jobs of 20 trials to
// an in-process service.Executor with a graph cache and no result
// cache, so its warm phase skips only graph builds and a job's first
// row is its last. service-roundtrip drives an in-process rumord
// through the client SDK; its warm phase restarts the daemon and
// replays the jobs from the reopened cachestore.
//
// Times are wall-clock. The share of the host's wanted CPU time its
// vCPUs got (the rest is hypervisor steal) is printed beside them, not
// applied to them.
//
// Checks, each miss counted in "failed": every cell completes; every
// streamed row equals an in-process Executor's bytes; warm jobs are
// served wholly from the store; work counters repeat exactly between
// runs of the same inputs; and each configuration's mean spreading time
// lies within its standard error of reference.json (written by
// -calibrate).
//
// With -trace 1, passes alternate untraced and traced. Traced passes
// record spans around the calls into each layer from this package
// only: engine-sparse runs a mirror of Executor.Run (in every
// pass of a traced run, so the overhead compares like with like), and
// the service workload wraps the result store and the SDK's HTTP
// transport. Per-layer metrics of a layer a workload does not reach
// read 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// Bounds on a run: enough passes for the counter-repeat check, and a
// hard stop well inside the 180 s limit.
const (
	minPasses  = 2
	hardLimitS = 150
)

// phaseStats accumulates one phase (cold or warm) across passes.
// Throughput is kept per pass and reported as the median over passes,
// which a burst of interference moves less than a run-long average.
type phaseStats struct {
	trialsPerS, cellsPerS []float64
	jobMs, firstMs        []float64
	slowestMs             []float64 // the slowest job of each pass
	shares                []float64 // vCPU share per pass (see runClients)
}

func (p *phaseStats) add(wall time.Duration, share float64, trials, cells int, jobMs, firstMs []float64) {
	p.trialsPerS = append(p.trialsPerS, float64(trials)/wall.Seconds())
	p.cellsPerS = append(p.cellsPerS, float64(cells)/wall.Seconds())
	p.jobMs = append(p.jobMs, jobMs...)
	p.firstMs = append(p.firstMs, firstMs...)
	if len(jobMs) > 0 {
		p.slowestMs = append(p.slowestMs, slices.Max(jobMs))
	}
	p.shares = append(p.shares, share)
}

// layerStats holds the per-layer measurements. Counts are those of
// the run's first (traced) pass, a pure function of the seed; slices
// hold one value per traced pass or per operation.
type layerStats struct {
	updates, edgesBuilt           int64
	cellsComputed, cellsCached    int64
	ndjsonPerCell                 int64
	storeBytes, appends, dropped  int64
	rows                          int64
	graphHitRate, resultHitRate   []float64
	buildS, engineS, encodeS      []float64
	engineWork                    int64
	engineTime                    time.Duration
	submitMs                      []float64
	openS, flushS                 []float64
	putUs, getUs, nextUs          []float64
	allocsPerTrial, bytesPerTrial float64
}

type runStats struct {
	setup                    []float64 // seconds, one per set-up
	heapMB                   []float64 // peak heap, one per pass
	cold, warm               phaseStats
	tracedCold, untracedCold phaseStats
	passes, tracedPasses     int
	pairWork                 int64 // traced engine run: the last untraced pass's core.updates
	tally                    tally
	repeat                   repeatCheck
	means                    meanCheck
	layers                   layerStats
}

type bench struct {
	name    string
	seed    uint64
	trace   bool // a per-layer run: every pass takes the traceable path
	workDir string
	wl      *workload  // service-roundtrip's jobs, generated once
	refRows [][][]byte // service-roundtrip: expected NDJSON row per job and cell
	st      runStats
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload: engine-sparse or service-roundtrip")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 45, "measuring time")
		trace     = flag.Int("trace", 0, "1 = per-layer run (traced and untraced passes alternate)")
		workDir   = flag.String("workdir", ".bench_build/work", "scratch directory for stores and span dumps")
		refsPath  = flag.String("refs", "perfbench/reference.json", "reference means")
		calibrate = flag.String("calibrate", "", "write reference means for every workload to this file and exit")
	)
	flag.Parse()
	ctx := context.Background()
	if *calibrate != "" {
		return writeReferences(ctx, *calibrate)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d (want 0 or 1)", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d", *seconds)
	}
	refs, err := loadReferences(*refsPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{name: *name, seed: *seed, trace: *trace == 1, workDir: dir}
	b.st.means = meanCheck{}
	var pass func(context.Context, *tracer) error
	switch *name {
	case wlSparse:
		pass = b.enginePass
	case wlService:
		if err := b.prepareService(ctx); err != nil {
			return err
		}
		pass = b.servicePass
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, workloadNames)
	}
	host := readHost()
	host.Workload, host.Seed, host.Seconds, host.Trace = *name, *seed, *seconds, *trace == 1

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	// The latency metrics need this many jobs per phase (see endToEnd).
	needCold, needWarm := samplesFor(0.5), samplesFor(0.5)
	if *name == wlService {
		needCold = samplesFor(0.95)
	}
	start := time.Now()
	if tr != nil {
		// Measured first, so that its time counts toward the run's.
		w := b.wl
		if w == nil {
			if w, err = newWorkload(b.name, b.seed, 0); err != nil {
				return err
			}
		}
		l := &b.st.layers
		if l.allocsPerTrial, l.bytesPerTrial, err = allocsPerTrial(ctx, w); err != nil {
			return err
		}
	}
	heap := startHeapSampler()
	for {
		elapsed := time.Since(start)
		enough := b.st.passes >= minPasses && len(b.st.cold.jobMs) >= needCold && len(b.st.warm.jobMs) >= needWarm
		if (enough && elapsed >= time.Duration(*seconds)*time.Second) || elapsed >= hardLimitS*time.Second {
			break
		}
		runtime.GC() // start every pass from the same heap
		var ptr *tracer
		if tr != nil && b.st.passes%2 == 1 {
			ptr = tr
			b.st.tracedPasses++
		}
		heap.takePeak()
		if err := pass(ctx, ptr); err != nil {
			return err
		}
		b.st.heapMB = append(b.st.heapMB, heap.takePeak())
		b.st.passes++
	}
	heap.Stop()
	for _, err := range b.st.means.check(refs) {
		b.st.tally.add(err)
	}

	rep := newReport()
	if tr == nil {
		if err := b.endToEnd(rep); err != nil {
			return err
		}
	} else {
		spans := tr.snapshot()
		b.perLayer(rep, spans)
		dump := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(dump, spans); err != nil {
			return err
		}
		fmt.Printf("# spans: %d written to %s\n", len(spans), dump)
	}

	hb, _ := json.Marshal(host)
	fmt.Printf("# host: %s\n", hb)
	fmt.Printf("# vcpu share: %.4f cold, %.4f warm (mean over phases; the rest was hypervisor steal; times are not corrected for it)\n",
		mean(b.st.cold.shares), mean(b.st.warm.shares))
	t := b.st.tally
	fmt.Printf("# error_rate: %g (%d failed of %d attempted)\n", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	for _, e := range t.errs {
		fmt.Printf("# failure: %s\n", e)
	}
	for _, n := range rep.names {
		fmt.Printf("# %-32s %16.6g %s\n", n, rep.m[n].Value, rep.m[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, rep.m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd reports the metrics a user of the system sees: set-up time
// (median over the run's set-ups), cold-phase throughput (median over
// passes), job latency from submit to the last row and to the first
// row, cold and warm, and the peak heap (median over passes).
//
// On engine-sparse a run holds about a hundred 20-trial jobs per
// phase, too few for a p95 with minTail samples beyond it (that needs
// samplesFor(0.95) = 182). There job_p95_ms is the slowest cold job of
// a pass, the sweep's straggler, as the median over passes.
func (b *bench) endToEnd(rep *report) error {
	st := &b.st
	jobP50, err := percentile(st.cold.jobMs, 0.5)
	if err != nil {
		return err
	}
	jobP95 := median(st.cold.slowestMs)
	if b.name == wlService {
		if jobP95, err = percentile(st.cold.jobMs, 0.95); err != nil {
			return err
		}
	}
	firstP50, err := percentile(st.cold.firstMs, 0.5)
	if err != nil {
		return err
	}
	warmP50, err := percentile(st.warm.jobMs, 0.5)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(st.setup), "s")
	rep.set("trials_per_s", median(st.cold.trialsPerS), "1/s")
	rep.set("cells_per_s", median(st.cold.cellsPerS), "1/s")
	rep.set("job_p50_ms", jobP50, "ms")
	rep.set("job_p95_ms", jobP95, "ms")
	rep.set("first_row_p50_ms", firstP50, "ms")
	rep.set("warm_job_p50_ms", warmP50, "ms")
	rep.set("peak_heap_mb", median(st.heapMB), "MiB")
	fmt.Printf("# samples: %d cold jobs, %d warm jobs, %d set-ups\n", len(st.cold.jobMs), len(st.warm.jobMs), len(st.setup))
	// Not an end-to-end metric: service-roundtrip's warm jobs take a few
	// milliseconds, and their tail follows the host's steal bursts
	// (IQR/median 0.30 over ten seeds), beyond any bound allowed.
	if warmP95, err := percentile(st.warm.jobMs, 0.95); err == nil {
		fmt.Printf("# warm_job_p95_ms (not gated): %.6g ms\n", warmP95)
	}
	return nil
}

// perLayer reports the per-layer metrics of a traced run. Times and
// self times are per traced pass; counts are the first pass's; per-call
// times (put_us, get_us, next_us) are means over calls. Metrics of a
// layer the workload does not reach read 0.
func (b *bench) perLayer(rep *report, spans []span) {
	st := &b.st
	l := &st.layers
	passes := float64(max(st.tracedPasses, 1))
	self := selfTimes(spans)

	build := mean(l.buildS)
	rep.set("graph.build_s", build, "s")
	edgesPerS := 0.0
	if build > 0 {
		edgesPerS = float64(l.edgesBuilt) / build
	}
	rep.set("graph.edges_per_s", edgesPerS, "1/s")
	rep.set("graph.edges_built", float64(l.edgesBuilt), "count")
	rep.set("graph.cache_hit_rate", mean(l.graphHitRate), "ratio")

	rep.set("core.engine_s", mean(l.engineS), "s")
	rep.set("core.updates", float64(l.updates), "count")
	updPerS := 0.0
	if l.engineTime > 0 {
		updPerS = float64(l.engineWork) / l.engineTime.Seconds()
	}
	rep.set("core.updates_per_s", updPerS, "1/s")
	rep.set("core.allocs_per_trial", l.allocsPerTrial, "count")
	rep.set("core.bytes_per_trial", l.bytesPerTrial, "B")

	rep.set("service.encode_s", mean(l.encodeS), "s")
	rep.set("service.ndjson_bytes_per_cell", float64(l.ndjsonPerCell), "count")
	submit := 0.0
	if len(l.submitMs) > 0 {
		submit = median(l.submitMs)
	}
	rep.set("service.submit_p50_ms", submit, "ms")
	rep.set("service.result_hit_rate", mean(l.resultHitRate), "ratio")
	rep.set("service.cells_computed", float64(l.cellsComputed), "count")
	rep.set("service.cells_cached", float64(l.cellsCached), "count")

	rep.set("cachestore.open_s", median(l.openS), "s")
	rep.set("cachestore.put_us", mean(l.putUs), "us")
	rep.set("cachestore.get_us", mean(l.getUs), "us")
	rep.set("cachestore.flush_s", mean(l.flushS), "s")
	rep.set("cachestore.bytes", float64(l.storeBytes), "B")
	rep.set("cachestore.appends", float64(l.appends), "count")
	rep.set("cachestore.dropped", float64(l.dropped), "count")

	rep.set("client.next_us", mean(l.nextUs), "us")
	rep.set("client.rows", float64(l.rows), "count")

	for _, layer := range layers {
		rep.set(layer+".self_s", self[layer].Seconds()/passes, "s")
	}
	traced := median(st.tracedCold.trialsPerS)
	untraced := median(st.untracedCold.trialsPerS)
	rep.set("trace.overhead_pct", (untraced-traced)/untraced*100, "%")
	rep.set("trace.spans", float64(len(spans))/passes, "count")
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"rumor/client"
	"rumor/internal/api"
	"rumor/internal/cachestore"
	"rumor/internal/obs"
	"rumor/internal/service"
)

// warmRounds is how many restarts replay the cold phase's jobs from
// the store in each service-roundtrip pass. Warm jobs take a few
// milliseconds, so several rounds keep their percentiles steady.
const warmRounds = 3

// prepareService generates the jobs and computes the reference rows
// with an in-process Executor, outside any timer: every row the
// server streams must equal these bytes.
func (b *bench) prepareService(ctx context.Context) error {
	w, err := newWorkload(b.name, b.seed, 0)
	if err != nil {
		return err
	}
	b.wl = w
	exec := &service.Executor{Graphs: service.NewGraphCache(64), CellWorkers: clients}
	b.refRows = make([][][]byte, len(w.jobs))
	graphs := map[string]int{}
	for i, j := range w.jobs {
		rs, err := exec.RunCells(ctx, j.cells)
		if err != nil {
			return fmt.Errorf("reference run of job %d: %w", i, err)
		}
		b.refRows[i] = make([][]byte, len(rs))
		for k, r := range rs {
			if b.refRows[i][k], err = api.Marshal(r); err != nil {
				return err
			}
			b.st.means.add(r)
			graphs[r.Cell.GraphKey()] = r.M
		}
	}
	for _, m := range graphs {
		b.st.layers.edgesBuilt += int64(m)
	}
	return nil
}

// daemon is one in-process rumord: scheduler over the tiered result
// cache over a cachestore, served on a loopback listener, with an SDK
// client pointed at it.
type daemon struct {
	reg      *obs.Registry
	store    *cachestore.Store
	tiered   *service.TieredResultCache
	traced   *tracedStore
	sched    *service.Scheduler
	srv      *http.Server
	serveErr chan error
	tp       *http.Transport
	cl       *client.Client
}

// startDaemon wires the daemon the way cmd/rumord does with -cache-dir
// and default flags (fsync on, 2 workers on this host's 2 cores).
func (b *bench) startDaemon(dir string, tr *tracer) (*daemon, error) {
	d := &daemon{reg: obs.NewRegistry(), serveErr: make(chan error, 1)}
	o := service.NewObservability(d.reg, nil)
	id := tr.begin(layerCachestore, "open", 0)
	t0 := time.Now()
	store, err := cachestore.Open(cachestore.Options{
		Dir:            dir,
		KeyVersion:     service.CellKeyVersion,
		CompatVersions: service.CellKeyCompatVersions(),
		Metrics:        cachestore.NewMetrics(d.reg),
	})
	open := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("opening cache store: %w", err)
	}
	if tr != nil {
		b.st.layers.openS = append(b.st.layers.openS, open.Seconds())
	}
	d.store = store
	d.tiered = service.NewTieredResultCache(service.NewResultCache(4096), store)
	var results service.ResultStore = d.tiered
	if tr != nil {
		d.traced = newTracedStore(d.tiered, tr)
		results = d.traced
	}
	d.sched = service.NewScheduler(service.SchedulerConfig{
		Workers:      clients,
		TrialWorkers: 1,
		Results:      results,
		Graphs:       service.NewGraphCache(64),
		Obs:          o,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.tiered.Close()
		return nil, err
	}
	d.srv = &http.Server{Handler: service.NewServer(d.sched, service.WithObservability(o))}
	go func() { d.serveErr <- d.srv.Serve(ln) }()
	d.tp = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = d.tp
	if tr != nil {
		rt = tracedTransport{inner: d.tp, tr: tr}
	}
	d.cl, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: rt}))
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the daemon the way rumord's SIGTERM path does: HTTP,
// then the scheduler, then the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.tp.CloseIdleConnections()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.sched.Shutdown(ctx); err == nil {
		err = serr
	}
	if cerr := d.tiered.Close(); err == nil {
		err = cerr
	}
	return err
}

// metric sums a sample over label sets in the daemon's registry, as a
// /metrics scrape would read it.
func (d *daemon) metric(name string) (float64, error) {
	var buf bytes.Buffer
	if err := d.reg.WriteText(&buf); err != nil {
		return 0, err
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		return 0, err
	}
	v, n := sc.Sum(name)
	if n == 0 {
		return 0, fmt.Errorf("no %s samples", name)
	}
	return v, nil
}

// collectStoreTimes moves the traced store's per-call durations into
// the run's per-layer samples.
func (b *bench) collectStoreTimes(d *daemon) {
	if d.traced == nil {
		return
	}
	l := &b.st.layers
	d.traced.mu.Lock()
	defer d.traced.mu.Unlock()
	for _, x := range d.traced.getDur {
		l.getUs = append(l.getUs, float64(x)/float64(time.Microsecond))
	}
	for _, x := range d.traced.putDur {
		l.putUs = append(l.putUs, float64(x)/float64(time.Microsecond))
	}
}

// serviceLayers accumulates one phase's traced client-side numbers.
type serviceLayers struct {
	mu       sync.Mutex
	submitMs []float64
	nextUs   []float64
	decoded  []*service.CellResult // traced passes: every row, for encodeProxy
	encode   time.Duration
	rows     int64
	rowBytes int64
}

// encodeProxy times api.EncodeRow, the server's row encoder, on the
// phase's decoded rows (the same values, so the same bytes). It runs
// after the phase, outside its timed window: the server's own encode
// has no public seam to time it at.
func (a *serviceLayers) encodeProxy() error {
	t0 := time.Now()
	for _, res := range a.decoded {
		if err := api.EncodeRow(io.Discard, res); err != nil {
			return err
		}
	}
	a.encode = time.Since(t0)
	return nil
}

// runJobs drives every job through the SDK on the closed loop of
// clients and checks each row against the reference bytes. warm jobs
// must be served entirely from the store.
func (b *bench) runJobs(ctx context.Context, d *daemon, tr *tracer, warm bool) (time.Duration, float64, []float64, []float64, *serviceLayers) {
	w := b.wl
	n := len(w.jobs)
	lat := make([]float64, n)
	first := make([]float64, n)
	errs := make([]error, n)
	acc := &serviceLayers{}
	wall, share := runClients(n, func(i int) {
		lat[i], first[i], errs[i] = b.runJob(ctx, d, tr, i, warm, acc)
	})
	if err := acc.encodeProxy(); err != nil {
		b.st.tally.fail(fmt.Errorf("re-encoding a row: %w", err))
	}
	// Every row is one operation; a job that fails counts all its rows
	// as failed (its latency sample is dropped with it).
	for i, err := range errs {
		if err != nil {
			err = fmt.Errorf("job %d: %w", i, err)
		}
		b.st.tally.addN(len(w.jobs[i].cells), err)
	}
	keep := func(xs []float64) []float64 {
		var out []float64
		for i, x := range xs {
			if errs[i] == nil {
				out = append(out, x)
			}
		}
		return out
	}
	return wall, share, keep(lat), keep(first), acc
}

// runJob is client.RunCells (idempotent submit, then stream) unrolled
// so that the first row and each SDK call can be timed.
func (b *bench) runJob(ctx context.Context, d *daemon, tr *tracer, i int, warm bool, acc *serviceLayers) (latMs, firstMs float64, err error) {
	cells := b.wl.jobs[i].cells
	var jobSpan int32
	cur := &spanCursor{}
	if tr != nil {
		jobSpan = tr.begin(layerClient, "job", 0)
		defer tr.end(jobSpan)
		d.traced.own(cells, jobSpan)
		ctx = withCursor(ctx, cur)
	}
	t0 := time.Now()
	cur.parent = tr.begin(layerClient, "submit", jobSpan)
	st, err := d.cl.SubmitJob(ctx, service.JobSpec{CellList: cells},
		client.WithIdempotencyKey(client.CellsIdempotencyKey(cells)))
	submit := time.Since(t0)
	tr.end(cur.parent)
	if err != nil {
		return 0, 0, err
	}
	cur.parent = tr.begin(layerClient, "results", jobSpan)
	stream, err := d.cl.Results(ctx, st.ID, -1)
	tr.end(cur.parent)
	if err != nil {
		return 0, 0, err
	}
	defer stream.Close()
	seen := make([]bool, len(cells))
	var nextUs []float64
	var decoded []*service.CellResult
	var rowBytes int64
	for row := 0; ; row++ {
		cur.parent = tr.begin(layerClient, "next", jobSpan)
		n0 := time.Now()
		res, err := stream.Next()
		nd := time.Since(n0)
		tr.end(cur.parent)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		latMs = ms(time.Since(t0)) // until the last row
		if row == 0 {
			firstMs = latMs
		}
		nextUs = append(nextUs, float64(nd)/float64(time.Microsecond))
		raw := stream.Raw()
		rowBytes += int64(len(raw)) + 1
		if res.Index < 0 || res.Index >= len(cells) || seen[res.Index] {
			return 0, 0, fmt.Errorf("row index %d out of order", res.Index)
		}
		seen[res.Index] = true
		if !bytes.Equal(raw, b.refRows[i][res.Index]) {
			return 0, 0, fmt.Errorf("row %d differs from the in-process Executor's", res.Index)
		}
		if tr != nil {
			decoded = append(decoded, res)
		}
	}
	for k, ok := range seen {
		if !ok {
			return 0, 0, fmt.Errorf("stream ended without cell %d", k)
		}
	}
	if warm {
		js, err := d.cl.Job(ctx, st.ID)
		if err != nil {
			return 0, 0, err
		}
		if js.CacheHits != js.CellsTotal {
			return 0, 0, fmt.Errorf("warm job %s: %d of %d cells from the store", st.ID, js.CacheHits, js.CellsTotal)
		}
	}
	acc.mu.Lock()
	acc.submitMs = append(acc.submitMs, ms(submit))
	acc.nextUs = append(acc.nextUs, nextUs...)
	acc.decoded = append(acc.decoded, decoded...)
	acc.rows += int64(len(cells))
	acc.rowBytes += rowBytes
	acc.mu.Unlock()
	return latMs, firstMs, nil
}

// servicePass is one cold phase against an empty store followed by
// warmRounds restarts that replay the same jobs from the store.
func (b *bench) servicePass(ctx context.Context, tr *tracer) error {
	dir, err := os.MkdirTemp(b.workDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w := b.wl
	trials, cells := w.trials(), len(w.cells())
	l := &b.st.layers

	t0 := time.Now()
	d, err := b.startDaemon(dir, tr)
	if err != nil {
		return err
	}
	b.st.setup = append(b.st.setup, time.Since(t0).Seconds())
	wall, share, lat, first, acc := b.runJobs(ctx, d, tr, false)
	b.st.cold.add(wall, share, trials, cells, lat, first)
	if tr != nil {
		b.st.tracedCold.add(wall, share, trials, cells, nil, nil)
	} else {
		b.st.untracedCold.add(wall, share, trials, cells, nil, nil)
	}
	id := tr.begin(layerCachestore, "flush", 0)
	err = d.tiered.Flush()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("flushing the store: %w", err)
	}
	id = tr.begin(layerCachestore, "stats", 0)
	ss := d.store.Stats()
	tr.end(id)
	m := d.sched.Metrics()
	if gs := d.sched.CacheStats().GraphCache; gs != nil {
		l.graphHitRate = append(l.graphHitRate, gs.Rate)
	}
	updates, err := d.metric("rumor_engine_node_updates_total")
	if err != nil {
		return err
	}
	// Computed cells' execution time (graph builds included) and the
	// store's fsync batch latency, as the daemon's own /metrics
	// histograms record them.
	engineS, err := d.metric("rumor_scheduler_cell_duration_seconds_sum")
	if err != nil {
		return err
	}
	flushSum, err := d.metric("rumor_cachestore_flush_seconds_sum")
	if err != nil {
		return err
	}
	flushes, err := d.metric("rumor_cachestore_flush_seconds_count")
	if err != nil {
		return err
	}
	b.collectStoreTimes(d)
	if err := d.stop(); err != nil {
		return fmt.Errorf("stopping the cold daemon: %w", err)
	}
	if ss.Dropped > 0 {
		b.st.tally.fail(fmt.Errorf("cachestore dropped %d appends", ss.Dropped))
	}
	c := counters{
		"core.updates":                  int64(updates),
		"cachestore.appends":            int64(ss.Appends),
		"cachestore.bytes":              ss.Bytes,
		"service.ndjson_bytes_per_cell": acc.rowBytes / max(acc.rows, 1),
	}
	l.updates, l.appends, l.storeBytes = c["core.updates"], c["cachestore.appends"], c["cachestore.bytes"]
	l.ndjsonPerCell, l.dropped, l.rows = c["service.ndjson_bytes_per_cell"], int64(ss.Dropped), acc.rows

	computed, cached := m.CellsComputed, m.CellsCached
	phases := []*serviceLayers{acc}
	for r := 0; r < warmRounds; r++ {
		t0 := time.Now()
		d, err := b.startDaemon(dir, tr)
		if err != nil {
			return err
		}
		b.st.setup = append(b.st.setup, time.Since(t0).Seconds())
		wall, share, lat, first, wacc := b.runJobs(ctx, d, tr, true)
		b.st.warm.add(wall, share, 0, cells, lat, first)
		phases = append(phases, wacc)
		wm := d.sched.Metrics()
		if wm.CellsComputed != 0 {
			b.st.tally.fail(fmt.Errorf("warm round %d computed %d cells", r, wm.CellsComputed))
		}
		computed += wm.CellsComputed
		cached += wm.CellsCached
		b.collectStoreTimes(d)
		if err := d.stop(); err != nil {
			return fmt.Errorf("stopping a warm daemon: %w", err)
		}
	}
	l.cellsComputed, l.cellsCached = computed, cached
	l.resultHitRate = append(l.resultHitRate, float64(cached)/float64(computed+cached))

	if tr != nil {
		l.flushS = append(l.flushS, flushSum/flushes)
		l.engineS = append(l.engineS, engineS)
		l.engineWork += int64(updates)
		l.engineTime += time.Duration(engineS * float64(time.Second))
		var encode time.Duration
		for _, a := range phases {
			l.submitMs = append(l.submitMs, a.submitMs...)
			l.nextUs = append(l.nextUs, a.nextUs...)
			encode += a.encode
		}
		l.encodeS = append(l.encodeS, encode.Seconds())
	}
	if err := b.st.repeat.check(c); err != nil {
		b.st.tally.fail(err)
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rumor/internal/api"
	"rumor/internal/graph"
	"rumor/internal/service"
	"rumor/internal/stats"
)

// clients is the closed-loop client count: each client sends its next
// job when the previous one returns.
const clients = 2

// runClients runs the jobs on a closed loop of clients sharing one job
// queue, calling do(i) for job i. It returns the phase's wall time and,
// for the host report, the share of the CPU time the host's vCPUs
// wanted that they got (see cpuTicks).
func runClients(n int, do func(i int)) (time.Duration, float64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	busy0, steal0 := cpuTicks()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	busy1, steal1 := cpuTicks()
	share := 1.0
	if busy1 > busy0 {
		share = 1 - float64(steal1-steal0)/float64(busy1-busy0)
	}
	return wall, share
}

// engineLayers accumulates the per-layer measurements of traced engine
// passes.
type engineLayers struct {
	mu        sync.Mutex
	buildSeen map[string]builtGraph // cold phase, per graph key: the first Get
	lookup    []float64             // ms
	engine    time.Duration
	work      int64
	encode    time.Duration
	rowBytes  [2]int64 // cold, warm phase
	rows      int64
}

type builtGraph struct {
	start time.Time
	dur   time.Duration
}

// mirrorRun is Executor.Run with the result cache off, unrolled so
// that each layer call gets its own span: lookup (validate, key, kind)
// → GraphCache.Get → the kind's Run → stats.Summarize and the NDJSON
// row encoding. TestMirrorMatchesExecutor pins its results to
// Executor.Run's.
func mirrorRun(ctx context.Context, gc *service.GraphCache, cell service.CellSpec, index int,
	tr *tracer, parent int32, acc *engineLayers, cold bool) (*service.CellResult, int64, error) {
	id := tr.begin(layerService, "lookup", parent)
	t0 := time.Now()
	if err := cell.Validate(); err != nil {
		return nil, 0, err
	}
	key := cell.Key()
	kindName := cell.Kind
	if kindName == "" {
		kindName = service.KindTime
	}
	kind, err := service.KindByName(kindName)
	lookup := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}

	var g *graph.Graph
	if kind.NeedsGraph {
		id = tr.begin(layerGraph, "get", parent)
		t0 = time.Now()
		g, err = gc.Get(cell)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("building %s(%d): %w", cell.Family, cell.N, err)
		}
		if acc != nil && cold {
			acc.mu.Lock()
			k := cell.GraphKey()
			if b, ok := acc.buildSeen[k]; !ok || t0.Before(b.start) {
				acc.buildSeen[k] = builtGraph{start: t0, dur: d}
			}
			acc.mu.Unlock()
		}
	}

	id = tr.begin(layerCore, "run", parent)
	t0 = time.Now()
	kr, err := kind.Run(ctx, cell, g, 1)
	engine := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}

	id = tr.begin(layerService, "encode", parent)
	t0 = time.Now()
	res := &service.CellResult{
		Index:    index,
		Cell:     cell,
		Key:      key,
		Times:    kr.Times,
		Summary:  stats.Summarize(kr.Times),
		Coverage: kr.Coverage,
		Series:   kr.Series,
		Values:   kr.Values,
	}
	if g != nil {
		res.Graph = g.Name()
		res.N = g.NumNodes()
		res.M = g.NumEdges()
	}
	row, err := api.Marshal(res)
	encode := time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	if acc != nil {
		acc.mu.Lock()
		acc.lookup = append(acc.lookup, ms(lookup))
		acc.engine += engine
		acc.work += kr.Work
		acc.encode += encode
		if cold {
			acc.rowBytes[0] += int64(len(row))
			acc.rows++
		} else {
			acc.rowBytes[1] += int64(len(row))
		}
		acc.mu.Unlock()
	}
	return res, kr.Work, nil
}

// setupReps is how many times an engine pass repeats its set-up; the
// pass reports the median. One set-up takes tens of microseconds.
const setupReps = 100

// engineSetup is what the program does before an engine pass takes its
// first cell: a graph cache and an executor, and the validation and
// canonical key of every cell (Executor.Run starts each cell with
// both). It returns the executor, its graph cache and the set-up time.
func engineSetup(w *workload) (*service.Executor, *service.GraphCache, time.Duration, error) {
	t0 := time.Now()
	gc := service.NewGraphCache(64)
	exec := &service.Executor{Graphs: gc}
	for _, j := range w.jobs {
		for _, c := range j.cells {
			if err := c.Validate(); err != nil {
				return nil, nil, 0, err
			}
			_ = c.Key()
		}
	}
	return exec, gc, time.Since(t0), nil
}

// enginePass runs one cold sweep and its warm repeat of an engine
// workload: a fresh graph cache, every job once with the cache filling
// (graph builds inside the jobs that first need them), then every job
// again on the warm cache. The result cache is off, so the warm phase
// recomputes every trial. Cells go through Executor.RunCells, except
// in a traced run, where every pass takes the mirror (with tr == nil
// in its untraced passes).
func (b *bench) enginePass(ctx context.Context, tr *tracer) error {
	// A traced run gives each traced pass the inputs of the untraced
	// pass before it, so the two differ only in tracing.
	pass := b.st.passes
	if b.trace {
		pass /= 2
	}
	w, err := newWorkload(b.name, b.seed, uint64(pass))
	if err != nil {
		return err
	}
	var exec *service.Executor
	var gc *service.GraphCache
	setups := make([]float64, setupReps)
	for r := range setups {
		var d time.Duration
		if exec, gc, d, err = engineSetup(w); err != nil {
			return err
		}
		setups[r] = d.Seconds()
	}
	b.st.setup = append(b.st.setup, median(setups))

	var acc *engineLayers
	if tr != nil {
		acc = &engineLayers{buildSeen: map[string]builtGraph{}}
	}
	phase := func(cold bool) ([]*service.CellResult, []error, int64, time.Duration, float64, []float64) {
		n := len(w.jobs)
		results := make([]*service.CellResult, n)
		errs := make([]error, n)
		lat := make([]float64, n)
		var work atomic.Int64
		wall, share := runClients(n, func(i int) {
			cell := w.jobs[i].cells[0]
			j0 := time.Now()
			if !b.trace {
				rs, err := exec.RunCells(ctx, w.jobs[i].cells)
				if err == nil {
					results[i] = rs[0]
				}
				errs[i] = err
			} else {
				id := tr.begin(layerService, "job", 0)
				res, wk, err := mirrorRun(ctx, gc, cell, 0, tr, id, acc, cold)
				tr.end(id)
				results[i], errs[i] = res, err
				work.Add(wk)
			}
			lat[i] = ms(time.Since(j0))
		})
		if !b.trace {
			work.Store(exec.EngineUpdates())
		}
		return results, errs, work.Load(), wall, share, lat
	}

	cold, coldErrs, coldWork, coldWall, coldShare, coldLat := phase(true)
	warm, warmErrs, warmWork, warmWall, warmShare, warmLat := phase(false)
	if !b.trace {
		warmWork -= coldWork // EngineUpdates is cumulative
	}

	trials, cells := w.trials(), len(w.cells())
	b.st.cold.add(coldWall, coldShare, trials, cells, coldLat, coldLat)
	b.st.warm.add(warmWall, warmShare, trials, cells, warmLat, warmLat)
	if tr != nil {
		b.st.tracedCold.add(coldWall, coldShare, trials, cells, nil, nil)
	} else {
		b.st.untracedCold.add(coldWall, coldShare, trials, cells, nil, nil)
	}

	graphs := map[string]int{}
	for i := range w.jobs {
		err := coldErrs[i]
		if err == nil {
			if tr == nil { // a traced pass repeats the inputs of an untraced one
				b.st.means.add(cold[i])
			}
			graphs[cold[i].Cell.GraphKey()] = cold[i].M
		}
		b.st.tally.add(err)
		err = warmErrs[i]
		if err == nil && cold[i] != nil && !slices.Equal(cold[i].Times, warm[i].Times) {
			err = fmt.Errorf("job %d: warm rerun differs from the cold run", i)
		}
		b.st.tally.add(err)
	}
	// The warm phase reruns the cold phase's inputs, so its work counts
	// must repeat exactly; the graphs are the same in every pass.
	if coldWork != warmWork {
		b.st.tally.fail(fmt.Errorf("core.updates: cold phase %d, warm phase %d", coldWork, warmWork))
	}
	if b.trace {
		if tr == nil {
			b.st.pairWork = coldWork
		} else if coldWork != b.st.pairWork {
			b.st.tally.fail(fmt.Errorf("core.updates: traced pass %d, untraced pass %d", coldWork, b.st.pairWork))
		}
	}
	var edges int64
	for _, m := range graphs {
		edges += int64(m)
	}
	if err := b.st.repeat.check(counters{"graph.edges_built": edges}); err != nil {
		b.st.tally.fail(err)
	}
	l := &b.st.layers
	if b.st.passes == 0 {
		l.updates = coldWork
	}
	l.edgesBuilt = edges
	l.cellsComputed = int64(2 * cells)
	l.graphHitRate = append(l.graphHitRate, gc.Stats().Rate)
	if acc != nil {
		if acc.rowBytes[0] != acc.rowBytes[1] {
			b.st.tally.fail(fmt.Errorf("NDJSON bytes: cold phase %d, warm phase %d", acc.rowBytes[0], acc.rowBytes[1]))
		}
		if l.ndjsonPerCell == 0 {
			l.ndjsonPerCell = acc.rowBytes[0] / acc.rows
		}
		var build time.Duration
		for _, bg := range acc.buildSeen {
			build += bg.dur
		}
		l.buildS = append(l.buildS, build.Seconds())
		l.engineS = append(l.engineS, acc.engine.Seconds())
		l.engineWork += acc.work
		l.engineTime += acc.engine
		l.encodeS = append(l.encodeS, acc.encode.Seconds())
		l.submitMs = append(l.submitMs, acc.lookup...)
	}
	return nil
}

// allocsPerTrial runs each job's cell once, serially, on a prebuilt
// graph and returns the engine's heap allocations (objects and bytes)
// per trial.
func allocsPerTrial(ctx context.Context, w *workload) (objs, bytes float64, err error) {
	kind, err := service.KindByName(service.KindTime)
	if err != nil {
		return 0, 0, err
	}
	gc := service.NewGraphCache(64)
	var trials int
	var before, after runtime.MemStats
	var mallocs, total uint64
	for _, j := range w.jobs {
		for _, c := range j.cells {
			g, err := gc.Get(c)
			if err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&before)
			if _, err := kind.Run(ctx, c, g, 1); err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			total += after.TotalAlloc - before.TotalAlloc
			trials += c.Trials
		}
	}
	return float64(mallocs) / float64(trials), float64(total) / float64(trials), nil
}

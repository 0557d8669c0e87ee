package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"rumor/internal/api"
	"rumor/internal/service"
)

func TestWorkloadIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.cells(), b.cells()) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		c, err := newWorkload(name, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.cells(), c.cells()) {
			t.Errorf("%s: seeds 7 and 8 generate the same cells", name)
		}
	}
}

// TestOddConfigurationCounts pins the property the latency medians
// rely on: every workload runs an odd number of jobs per pass.
func TestOddConfigurationCounts(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.jobs)%2 == 0 {
			t.Errorf("%s: %d jobs per pass, want an odd count", name, len(w.jobs))
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{200, 0.95, true}, {190, 0.95, true}, {181, 0.95, false}, {100, 0.95, false},
		{20, 0.5, true}, {19, 0.5, false}, {902, 0.99, true}, {901, 0.99, false},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", tc.q*100, tc.n, err, tc.ok)
		}
	}
	if n := samplesFor(0.95); n != 182 {
		t.Errorf("samplesFor(0.95) = %d, want 182", n)
	}
	if n := samplesFor(0.5); n != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", n)
	}
	got, err := percentile(seq(201), 0.95)
	if err != nil || got != 191 {
		t.Errorf("p95 of 1..201 = %v, %v; want 191", got, err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}

	b := &bench{}
	for i := 0; i < 250; i++ {
		x := float64(i + 1)
		b.st.cold.add(time.Second, 1, 1, 1, []float64{x}, []float64{x})
		b.st.warm.add(time.Second, 1, 1, 1, []float64{x}, []float64{x})
	}
	b.st.setup = []float64{1}
	b.st.heapMB = []float64{1}
	e2e := newReport()
	if err := b.endToEnd(e2e); err != nil {
		t.Fatal(err)
	}
	layer := newReport()
	b.perLayer(layer, nil)

	for _, tc := range []struct {
		kind string
		file []struct{ Name, Unit string }
		rep  *report
	}{{"end_to_end", bf.EndToEnd, e2e}, {"per_layer", bf.PerLayer, layer}} {
		var want, got []string
		for _, m := range tc.file {
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s name %q does not match %s", tc.kind, m.Name, metricName)
			}
			want = append(want, m.Name+" "+m.Unit)
		}
		for _, n := range tc.rep.names {
			got = append(got, n+" "+tc.rep.m[n].Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program reports %v", tc.kind, want, got)
		}
	}
}

// TestMirrorMatchesExecutor pins the traced engine path to
// Executor.Run: the same cells give identical results and rows.
func TestMirrorMatchesExecutor(t *testing.T) {
	var cells []service.CellSpec
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range w.cells() {
			if name == wlService && i >= 16 {
				break
			}
			// Shrink the graphs; the churn schedule needs 1459 nodes.
			if c.N > 2048 {
				c.N = 2048
			}
			c.Trials = 2 // two, so that the second reuses a pooled stepper
			cells = append(cells, c)
		}
	}
	ctx := context.Background()
	exec := &service.Executor{Graphs: service.NewGraphCache(64)}
	gc := service.NewGraphCache(64)
	for i, c := range cells {
		want, _, err := exec.Run(ctx, i, c)
		if err != nil {
			t.Fatalf("cell %d (%s): %v", i, configKey(c), err)
		}
		got, work, err := mirrorRun(ctx, gc, c, i, nil, 0, nil, true)
		if err != nil {
			t.Fatalf("mirror cell %d: %v", i, err)
		}
		if work <= 0 {
			t.Errorf("cell %d: mirror reports %d engine updates", i, work)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cell %d (%s): mirror result differs from Executor.Run", i, configKey(c))
		}
		wb, _ := api.Marshal(want)
		gb, _ := api.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Errorf("cell %d: mirror row differs", i)
		}
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: layerClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerService, Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: layerService, Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 3, Layer: layerCachestore, Start: 50, End: 55},
		{ID: 5, Parent: 1, Layer: layerCachestore, Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		layerClient:     100 - 50 - 10,
		layerService:    30 + 30 - 5,
		layerCachestore: 5 + 30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

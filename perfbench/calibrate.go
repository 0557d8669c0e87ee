package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"rumor/internal/service"
	"rumor/internal/stats"
)

// Calibration sample per configuration: calInstances graph seeds with
// calTrials trials each, on seeds no benchmark run derives.
const (
	calInstances = 8
	calTrials    = 16
	calSeed      = 0xca11b
)

// writeReferences measures the reference law of every configuration
// the workloads use and writes it to path (see refEntry).
func writeReferences(ctx context.Context, path string) error {
	templates := map[string]service.CellSpec{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 0, 0)
		if err != nil {
			return err
		}
		for _, c := range w.cells() {
			templates[configKey(c)] = c
		}
	}
	keys := make([]string, 0, len(templates))
	for k := range templates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var cells []service.CellSpec
	for ki, k := range keys {
		for g := 0; g < calInstances; g++ {
			c := templates[k]
			c.Trials = calTrials
			c.GraphSeed = mix(calSeed, uint64(ki), uint64(g), 1)
			c.TrialSeed = mix(calSeed, uint64(ki), uint64(g), 2)
			cells = append(cells, c)
		}
	}
	exec := &service.Executor{Graphs: service.NewGraphCache(64)}
	res, err := exec.RunCells(ctx, cells)
	if err != nil {
		return err
	}
	refs := references{}
	for ki, k := range keys {
		var means, vars []float64
		for g := 0; g < calInstances; g++ {
			s := res[ki*calInstances+g].Summary
			means = append(means, s.Mean)
			vars = append(vars, s.Variance)
		}
		within := mean(vars)
		between := stats.Summarize(means).Variance - within/calTrials
		refs[k] = refEntry{
			Mean:      mean(means),
			SDWithin:  math.Sqrt(within),
			SDBetween: math.Sqrt(math.Max(between, 0)),
			Instances: calInstances,
			Trials:    calTrials,
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d reference laws to %s\n", len(refs), path)
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"rumor/internal/service"
)

// refEntry is the recorded law of one cell configuration: the mean
// spreading time, the per-trial standard deviation within one graph
// instance, and the standard deviation of instance means across graph
// seeds (zero for deterministic families, up to estimation noise).
type refEntry struct {
	Mean      float64 `json:"mean"`
	SDWithin  float64 `json:"sd_within"`
	SDBetween float64 `json:"sd_between"`
	// Instances and Trials are the calibration sample: Instances graph
	// seeds with Trials trials each.
	Instances int `json:"instances"`
	Trials    int `json:"trials"`
}

// tolSigmas is how many standard errors a configuration's mean may
// stray from the reference. Spreading times are skewed and repeated
// benchmark runs check thousands of configurations, so the band is
// wide; a changed law (not a changed draw order) still moves a pooled
// mean well past it.
const tolSigmas = 6

// tolerance is the band for the mean of trials trials drawn on graphs
// graph instances: its standard error (within and between instances)
// and the reference's, combined.
func (e refEntry) tolerance(trials, graphs int) float64 {
	// A configuration that showed no spread in calibration (a diamond
	// chain's push-pull rounds) still gets a band of 1% of its mean.
	sdw := math.Max(e.SDWithin, 0.01*math.Abs(e.Mean))
	w2 := sdw * sdw
	b2 := e.SDBetween * e.SDBetween
	se2 := w2/float64(trials) + b2/float64(max(graphs, 1))
	ref2 := (w2/float64(max(e.Trials, 1)) + b2) / float64(max(e.Instances, 1))
	return tolSigmas * math.Sqrt(se2+ref2)
}

type references map[string]refEntry

func loadReferences(path string) (references, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference means: %w", err)
	}
	var refs references
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return refs, nil
}

// pooled gathers the run's computed cells by configuration.
type pooled struct {
	sum    float64
	trials int
	graphs map[string]bool
}

// meanCheck pools every computed cell of a run by configuration and
// checks each configuration's mean against its reference law. Pooling
// keeps a single rare slow trial (an exponential tail from a
// low-degree node) from failing a one-trial cell.
type meanCheck map[string]*pooled

func (m meanCheck) add(res *service.CellResult) {
	k := configKey(res.Cell)
	p := m[k]
	if p == nil {
		p = &pooled{graphs: map[string]bool{}}
		m[k] = p
	}
	for _, t := range res.Times {
		p.sum += t
	}
	p.trials += len(res.Times)
	p.graphs[res.Cell.GraphKey()] = true
}

// check returns one error (or nil) per configuration.
func (m meanCheck) check(refs references) []error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var errs []error
	for _, k := range keys {
		p := m[k]
		e, ok := refs[k]
		if !ok {
			errs = append(errs, fmt.Errorf("no reference mean for %s", k))
			continue
		}
		got := p.sum / float64(p.trials)
		if tol := e.tolerance(p.trials, len(p.graphs)); math.Abs(got-e.Mean) > tol || math.IsNaN(got) {
			errs = append(errs, fmt.Errorf("%s: mean %.4g over %d trials outside %.4g ± %.4g", k, got, p.trials, e.Mean, tol))
			continue
		}
		errs = append(errs, nil)
	}
	return errs
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(err error) { t.addN(1, err) }

// addN counts n operations that succeed or fail together.
func (t *tally) addN(n int, err error) {
	t.attempted += n
	if err != nil {
		t.fail(err)
		t.failed += n - 1
	}
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
}

// counters holds the deterministic work counts of one pass. Every pass
// of a run runs the same inputs, so each must repeat exactly.
type counters map[string]int64

// repeatCheck compares a pass's counters to the first pass's.
type repeatCheck struct {
	first counters
}

func (r *repeatCheck) check(c counters) error {
	if r.first == nil {
		r.first = c
		return nil
	}
	for k, v := range c {
		want, ok := r.first[k]
		if !ok {
			r.first[k] = v // first pass that measured it
			continue
		}
		if want != v {
			return fmt.Errorf("counter %s = %d, first pass had %d", k, v, want)
		}
	}
	return nil
}

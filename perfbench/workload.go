package main

import (
	"encoding/json"
	"fmt"

	"rumor/internal/service"
)

// A job is one submission: the cells a client hands over in one call
// (Executor.RunCells in-process, client.RunCells' submit+stream over
// HTTP).
type job struct {
	cells []service.CellSpec
}

// workload is the deterministic input of one pass: the job list both
// phases (cold, then warm) run through. It is a pure function of the
// workload name, the seed and the pass number.
type workload struct {
	jobs []job
}

// Workload names, as passed to -workload.
const (
	wlSparse  = "engine-sparse"
	wlService = "service-roundtrip"
)

var workloadNames = []string{wlSparse, wlService}

// variant is one process configuration on a graph group: everything a
// cell carries except the graph, the seeds and the trial count.
type variant struct {
	protocol, timing, view string
	mod                    func(*service.CellSpec)
}

// group is one graph instance per pass and the variants run on it.
type group struct {
	family   string
	n        int
	variants []variant
}

func v(protocol, timing string) variant {
	return variant{protocol: protocol, timing: timing}
}

func (x variant) withView(view string) variant { x.view = view; return x }

func (x variant) with(mod func(*service.CellSpec)) variant { x.mod = mod; return x }

// engineTrials is the trial count of every engine-workload cell. It is
// what the experiment suite asks for on its largest graphs: E09 runs
// its n = 1000 cells with 20 trials in quick mode (60 in full mode);
// the other quick picks range from 6 to 100. The executor pools a
// cell's steppers across its trials, so a cell of this size spends
// most of its time in the steady-state trial path, as real sweeps do.
const engineTrials = 20

// sparseGroups: small builds, cheap boundary upkeep; the per-contact
// path, the heap engines (crash schedules in the non-global views) and
// the dynamic-topology providers carry the cost. Push on powerlaw and
// async push on star are left out: both run for seconds per trial.
// Each feature runs on one family only, so that a pass takes ~12 s.
//
// A workload has an odd number of configurations, so that the median
// job lies inside one configuration's group of samples (one per pass)
// rather than on the boundary between two.
func sparseGroups() []group {
	crash := func(c *service.CellSpec) {
		c.Crashes = []service.CrashSpec{{Node: 1, Time: 1}, {Node: 2, Time: 2}, {Node: 5, Time: 3}}
	}
	churn := func(c *service.CellSpec) {
		for i := 0; i < 16; i++ {
			node := 3 + 97*i
			c.Churn = append(c.Churn,
				service.ChurnSpec{Node: node, Time: 2, Op: service.ChurnOpLeave},
				service.ChurnSpec{Node: node, Time: 6, Op: service.ChurnOpJoin, DropState: i%2 == 0})
		}
	}
	loss := func(p float64) func(*service.CellSpec) {
		return func(c *service.CellSpec) { c.LossProb = p }
	}
	resample := func(c *service.CellSpec) {
		c.Dynamic = service.DynamicResample
		c.DynamicPeriod = 4
	}
	perturb := func(c *service.CellSpec) {
		c.Dynamic = service.DynamicPerturb
		c.DynamicPeriod = 4
		c.PerturbRate = 0.1
	}
	return []group{
		{family: "hypercube", n: 1 << 14, variants: []variant{
			v("push", "sync"), v("pull", "sync"),
			v("push-pull", "sync"), v("push-pull", "async"),
			v("push-pull", "async").withView("per-node-clocks"),
			v("push-pull", "async").withView("per-edge-clocks"),
			v("push-pull", "sync").with(loss(0.1)),
			v("push-pull", "async").withView("per-node-clocks").with(crash),
			v("push-pull", "async").with(perturb),
		}},
		{family: "torus", n: 1 << 14, variants: []variant{
			v("push", "sync"), v("pull", "sync"), v("push-pull", "sync"),
		}},
		{family: "random-regular", n: 1 << 14, variants: []variant{
			v("push", "sync"), v("push", "async"),
			v("pull", "sync"), v("pull", "async"),
			v("push-pull", "sync"), v("push-pull", "async"),
			v("push", "async").with(loss(0.2)),
			v("push-pull", "async").with(churn),
			v("push-pull", "sync").with(resample),
		}},
		{family: "powerlaw", n: 1 << 14, variants: []variant{
			v("pull", "sync"), v("pull", "async"), v("push-pull", "sync"), v("push-pull", "async"),
		}},
		{family: "diamond", n: 1 << 11, variants: []variant{
			v("pull", "sync"), v("pull", "async"), v("push-pull", "sync"), v("push-pull", "async"),
		}},
		{family: "cycle", n: 1 << 11, variants: []variant{
			v("pull", "sync"), v("push-pull", "sync"),
		}},
	}
}

// Service-roundtrip sizing: serviceJobs small cold grids of
// serviceFamilies × protocols × timings at n = 256, with the trial
// count the experiment suite uses at that size in quick mode (E02,
// E14 and E15 run n = 256 with 40 trials). serviceJobs is odd so that
// neither p50 nor p95 falls on the boundary between two of the
// grid's latency groups.
const (
	serviceN      = 256
	serviceTrials = 40
	serviceJobs   = 111
)

var serviceFamilies = []string{"hypercube", "random-regular", "gnp", "complete", "torus"}

// mix derives a seed from the workload seed and coordinates
// (splitmix64 finalizer over a running hash), so every cell's seeds
// are a pure function of (seed, position).
func mix(seed uint64, coords ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range coords {
		h ^= c + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// newWorkload generates the named workload's pass from the seed.
// engine-sparse keeps its graphs across passes and draws fresh
// trial seeds each pass, so a run samples many trials of every
// configuration; the service workload replays the same jobs every pass
// (their rows are checked byte for byte against reference rows).
func newWorkload(name string, seed, pass uint64) (*workload, error) {
	w := &workload{}
	switch name {
	case wlSparse:
		for gi, g := range sparseGroups() {
			graphSeed := mix(seed, 1, uint64(gi))
			for vi, x := range g.variants {
				c := service.CellSpec{
					Family: g.family, N: g.n,
					Protocol: x.protocol, Timing: x.timing, View: x.view,
					Trials:    engineTrials,
					GraphSeed: graphSeed,
					TrialSeed: mix(seed, 2, pass, uint64(gi), uint64(vi)),
				}
				if x.mod != nil {
					x.mod(&c)
				}
				w.jobs = append(w.jobs, job{cells: []service.CellSpec{c}})
			}
		}
	case wlService:
		protocols := []string{"push", "push-pull"}
		timings := []string{"sync", "async"}
		for j := 0; j < serviceJobs; j++ {
			var cells []service.CellSpec
			for k := 0; k < 2; k++ {
				fi := (j + 2*k) % len(serviceFamilies)
				for _, p := range protocols {
					for _, t := range timings {
						cells = append(cells, service.CellSpec{
							Family: serviceFamilies[fi], N: serviceN,
							Protocol: p, Timing: t, Trials: serviceTrials,
							GraphSeed: mix(seed, 3, uint64(j), uint64(k)),
							TrialSeed: mix(seed, 4, uint64(j), uint64(len(cells))),
						})
					}
				}
			}
			w.jobs = append(w.jobs, job{cells: cells})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, j := range w.jobs {
		for _, c := range j.cells {
			if err := c.Validate(); err != nil {
				return nil, fmt.Errorf("workload %s: %w", name, err)
			}
		}
	}
	return w, nil
}

// cells returns every cell of the pass, in job order.
func (w *workload) cells() []service.CellSpec {
	var out []service.CellSpec
	for _, j := range w.jobs {
		out = append(out, j.cells...)
	}
	return out
}

// trials returns the number of trials one phase of a pass simulates.
func (w *workload) trials() int {
	n := 0
	for _, c := range w.cells() {
		n += c.Trials
	}
	return n
}

// configKey names a cell's process configuration: the spec without
// its seeds and trial count. Cells sharing it sample the same
// spreading-time law, so one reference mean covers them all.
func configKey(c service.CellSpec) string {
	c.GraphSeed, c.TrialSeed, c.Trials = 0, 0, 0
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // a CellSpec always marshals
	}
	return string(b)
}

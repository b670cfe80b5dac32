package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"aitf/internal/scenario"
)

// simSeeds is the scenario range the repository's property suite
// gates; a run shuffles it by its seed.
const simSeeds = 50

// simOpts selects one simulator phase.
type simOpts struct {
	seed    int64
	measure time.Duration // run whole passes until this much time has passed
	passes  int           // at least this many passes (2 = every seed repeated once)
	setup   bool
}

// runSim runs GenSpec scenarios through scenario.Run, pass after pass
// over the shuffled seed range. The first pass records each seed's
// fingerprint; every later pass must reproduce it.
func runSim(o simOpts) *outcome {
	out := newOutcome()
	if o.setup {
		// Set-up is the range's first scenario, built and run from
		// scratch, repeated.
		var s []float64
		for i := 0; i < setupReps; i++ {
			start := time.Now()
			scenario.Run(scenario.GenSpec(1))
			s = append(s, time.Since(start).Seconds())
		}
		out.e2e.set("setup_s", medianFloat(s), "s")
	}
	seeds := make([]int64, simSeeds)
	for i, j := range rand.New(rand.NewSource(o.seed)).Perm(simSeeds) {
		seeds[i] = int64(j + 1)
	}
	fingerprints := map[int64]uint64{}
	bad := map[int64]bool{}
	var runMs []float64
	var events, allocs uint64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	var passRates []float64
	for pass := 0; pass < o.passes || time.Since(start) < o.measure; pass++ {
		passStart := time.Now()
		for _, seed := range seeds {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			res := scenario.Run(scenario.GenSpec(seed))
			runMs = append(runMs, float64(time.Since(t0).Nanoseconds())/1e6)
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			events += uint64(res.Events)
			out.attempted++
			fp, seen := fingerprints[seed]
			switch {
			case res.Failed():
				out.failed++
				if !bad[seed] {
					bad[seed] = true
					out.problem("scenario seed %d violates invariants: %v", seed, res.Violations)
				}
			case !seen:
				fingerprints[seed] = res.Fingerprint
			case fp != res.Fingerprint:
				out.failed++
				out.problem("scenario seed %d fingerprint %016x differs from its first run %016x", seed, res.Fingerprint, fp)
			}
		}
		passRates = append(passRates, float64(len(seeds))/time.Since(passStart).Seconds())
	}
	elapsed := time.Since(start)
	// The median pass resists bursts of interference from outside the
	// process; every pass runs the same scenarios.
	out.e2e.set("sim_scenarios_per_s", medianFloat(passRates), "1/s")
	out.notes = append(out.notes, fmt.Sprintf("pass rates: %.1f", passRates))
	sort.Float64s(runMs)
	l := out.layers
	l.set("scenario.run_ms_p50", runMs[len(runMs)/2], "ms")
	l.set("scenario.run_ms_max", runMs[len(runMs)-1], "ms")
	l.set("scenario.events", float64(events)/float64(len(runMs)), "events")
	l.set("scenario.allocs", float64(allocs)/float64(len(runMs)), "allocs")
	out.notes = append(out.notes, fmt.Sprintf("%d scenarios over %d seeds in %v", len(runMs), simSeeds, elapsed.Round(time.Millisecond)))
	return out
}

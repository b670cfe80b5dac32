// Command aitf-bench regenerates every experiment table of the paper's
// evaluation (see EXPERIMENTS.md). With no arguments it runs
// everything; pass experiment IDs (e.g. "E2 E8") to select.
//
// With -json, results — including a data-plane throughput sweep across
// shard counts, table sizes, traffic mixes, and goroutine counts, plus
// a steady-state allocs/op probe per cell — are also written as
// machine-readable JSON (default BENCH_dataplane.json) so successive
// revisions can track the performance trajectory.
//
// With -regress, the sweep is re-run and compared against the
// committed trend file instead: the command exits non-zero when the
// geometric-mean throughput at any goroutine count drops more than
// -regress-tol below the baseline, when a steady-state cell starts
// allocating, or when live metrics instrumentation costs more than
// -instr-tol (default 5%) of uninstrumented throughput — that last
// gate compares twin engines inside the same run, so it holds on any
// machine. CI runs this as a cheap perf smoke.
//
// -metrics-json additionally writes the instrumented engine's live
// counter registry in the aitfd /metrics.json snapshot format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/experiments"
	"aitf/internal/obs"
	"aitf/internal/sim"
)

// dataplaneResult is one cell of the throughput sweep.
type dataplaneResult struct {
	Shards     int     `json:"shards"`
	Filters    int     `json:"filters"`
	Mix        string  `json:"mix"`
	Goroutines int     `json:"goroutines"`
	PPS        float64 `json:"pps"`
	// AllocsPerOp is the steady-state heap allocations per ClassifyInto
	// call (one 64-packet batch); the lock-free read path keeps it 0.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// wildcardResult is one cell of the wildcard/prefix sweep: a table of
// Pairs exact-pair filters plus NonExact coarse filters (source-/24
// prefixes in the LPM trie, dst-anchored wildcards in the secondary
// index), classified with WildFrac of the traffic aimed at the coarse
// population. ScanPPS, measured once per table size, is the pre-change
// linear-scan reference for the same workload — the speedup the
// indexed match hierarchy buys is PPS/ScanPPS.
type wildcardResult struct {
	Shards      int     `json:"shards"`
	Pairs       int     `json:"pairs"`
	NonExact    int     `json:"non_exact"`
	WildFrac    float64 `json:"wild_frac"`
	PPS         float64 `json:"pps"`
	ScanPPS     float64 `json:"scan_pps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// instrumentedResult is one cell of the instrumentation-overhead
// sweep: the same workload classified by an engine with the full obs
// registry attached (counters live, batch-size histogram recording)
// and by an uninstrumented twin. BasePPS is the uninstrumented
// reference measured in the same run, so the overhead ratio
// PPS/BasePPS is machine-independent and can be gated absolutely.
type instrumentedResult struct {
	Shards     int     `json:"shards"`
	Filters    int     `json:"filters"`
	Mix        string  `json:"mix"`
	Goroutines int     `json:"goroutines"`
	PPS        float64 `json:"pps"`
	BasePPS    float64 `json:"base_pps"`
	// AllocsPerOp is the instrumented engine's steady-state heap
	// allocations per ClassifyInto call; instrumentation must keep it 0.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// detectResult is one cell of the detection sweep: the sketch engine's
// batch Observe throughput over a mixed attacker/background workload,
// across count-min geometries and attacker counts, plus the
// steady-state allocs/op probe (the observation path must stay 0 so
// detection can run inside the classification loop).
type detectResult struct {
	Width       int     `json:"width"`
	Depth       int     `json:"depth"`
	TopK        int     `json:"topk"`
	Attackers   int     `json:"attackers"`
	PPS         float64 `json:"pps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchOutput is the schema of the -json file.
type benchOutput struct {
	GeneratedAt string               `json:"generated_at"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Experiments []experiments.Result `json:"experiments"`
	Dataplane   []dataplaneResult    `json:"dataplane"`
	// DataplaneWildcard tracks the indexed wildcard/prefix match path
	// across table sizes up to one million entries.
	DataplaneWildcard []wildcardResult `json:"dataplane_wildcard"`
	// DataplaneInstrumented tracks the cost of live metrics on the hot
	// path: instrumented vs uninstrumented twin engines, same workload,
	// same run.
	DataplaneInstrumented []instrumentedResult `json:"dataplane_instrumented"`
	// Detect tracks the sketch detection engine (internal/detect).
	Detect []detectResult `json:"detect"`
	// Alloc contrasts the fixed-/24 aggregation fallback with the
	// collateral-aware allocator on the deterministic §IV-B pressure
	// workload (internal/experiments.AllocSweep). The simulator runs in
	// virtual time, so the cells are byte-exact on every machine.
	Alloc []experiments.AllocCell `json:"alloc"`
}

const benchBatchSize = 64

// mixFrac maps a mix name to its hit fraction.
var mixFrac = map[string]float64{"hit": 1, "miss": 0, "mixed": 0.5}

// measureDataplane runs concurrent batch classification against a
// preloaded engine with exactly `goroutines` workers for the given
// duration and returns aggregate packets/sec. The engine and batches
// come from the same dataplane.Workload* helpers the
// BenchmarkDataplaneThroughput family uses, so the JSON trend tracks
// exactly the benchmarked cells.
func measureDataplane(e *dataplane.Engine, filters int, hitFrac float64, goroutines int, dur time.Duration) float64 {
	var total atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := dataplane.WorkloadBatch(rng, filters, benchBatchSize, hitFrac)
			verdicts := make([]dataplane.Verdict, 0, benchBatchSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				verdicts = e.ClassifyInto(batch, verdicts)
				total.Add(benchBatchSize)
			}
		}(int64(w) + 1)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// allocsPerOp returns the steady-state heap allocations per call of op:
// the least mean over up to three windows of runs calls, after one
// warm-up call. Unlike testing.AllocsPerRun it keeps the fraction, so
// one allocation in a thousand calls still shows.
//
// MemStats.Mallocs is process-wide, so, as AllocsPerRun does, the probe
// pins GOMAXPROCS to 1 and no other goroutine runs alongside op. The
// runtime goroutines a collection readies (finalizers, unique-map
// cleanup) can still run at a preemption inside a window; the Gosched
// lets them go first, and a window they hit anyway is measured again.
// An allocation op makes in every window shows in the least one. GC is
// paused too: a cycle mid-loop would evict the engines' sync.Pool
// scratch and charge the refill to op.
func allocsPerOp(runs int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.Gosched()
	op() // warm the scratch pools post-GC
	least := uint64(math.MaxUint64)
	for w := 0; w < 3 && least > 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return float64(least) / float64(runs)
}

// classifyAllocsPerOp measures steady-state heap allocations per
// ClassifyInto call on a warm engine.
func classifyAllocsPerOp(e *dataplane.Engine, filters int, hitFrac float64) float64 {
	rng := rand.New(rand.NewSource(99))
	batch := dataplane.WorkloadBatch(rng, filters, benchBatchSize, hitFrac)
	verdicts := make([]dataplane.Verdict, 0, benchBatchSize)
	return allocsPerOp(1000, func() { verdicts = e.ClassifyInto(batch, verdicts) })
}

// sweepSpec enumerates the cells measured by -json and -regress.
type sweepSpec struct {
	shards, filters []int
	mixes           []string
	goroutines      []int
}

func defaultSweep(goroutines []int) sweepSpec {
	return sweepSpec{
		shards:     []int{1, 4, 8},
		filters:    []int{1024, 4096, 65536},
		mixes:      []string{"hit", "miss", "mixed"},
		goroutines: goroutines,
	}
}

func dataplaneSweep(spec sweepSpec, dur time.Duration) []dataplaneResult {
	var out []dataplaneResult
	for _, shards := range spec.shards {
		for _, filters := range spec.filters {
			// One engine per (shards, filters): cells differ only in
			// offered traffic, exactly as the benchmark family's cells do.
			e := dataplane.WorkloadEngine(shards, filters)
			for _, mix := range spec.mixes {
				allocs := classifyAllocsPerOp(e, filters, mixFrac[mix])
				for _, g := range spec.goroutines {
					out = append(out, dataplaneResult{
						Shards:      shards,
						Filters:     filters,
						Mix:         mix,
						Goroutines:  g,
						PPS:         measureDataplane(e, filters, mixFrac[mix], g, dur),
						AllocsPerOp: allocs,
					})
				}
			}
		}
	}
	return out
}

// defaultInstrumentedSweep picks the overhead cells: mid-size tables,
// the mixed traffic pattern, serial and parallel offered load. Small on
// purpose — each cell is measured twice (instrumented and base).
func defaultInstrumentedSweep(goroutines []int) sweepSpec {
	gors := []int{1}
	for _, g := range goroutines {
		if g > 1 {
			gors = append(gors, g)
			break // 1 plus the first parallel count is enough signal
		}
	}
	return sweepSpec{
		shards:     []int{4},
		filters:    []int{4096, 65536},
		mixes:      []string{"mixed"},
		goroutines: gors,
	}
}

// instrumentedSweep measures every cell twice over the same workload:
// once on an engine carrying the full obs registry (live counters plus
// the batch-size histogram) and once on an uninstrumented twin built
// from the same helper. The returned registry is the last cell's, with
// its counters still live — the -metrics-json snapshot.
func instrumentedSweep(spec sweepSpec, dur time.Duration) ([]instrumentedResult, *obs.Registry) {
	var out []instrumentedResult
	var reg *obs.Registry
	for _, shards := range spec.shards {
		for _, filters := range spec.filters {
			base := dataplane.WorkloadEngine(shards, filters)
			inst := dataplane.WorkloadEngine(shards, filters)
			reg = obs.NewRegistry()
			inst.Instrument(reg)
			for _, mix := range spec.mixes {
				allocs := classifyAllocsPerOp(inst, filters, mixFrac[mix])
				for _, g := range spec.goroutines {
					out = append(out, instrumentedResult{
						Shards:      shards,
						Filters:     filters,
						Mix:         mix,
						Goroutines:  g,
						PPS:         measureDataplane(inst, filters, mixFrac[mix], g, dur),
						BasePPS:     measureDataplane(base, filters, mixFrac[mix], g, dur),
						AllocsPerOp: allocs,
					})
				}
			}
		}
	}
	return out, reg
}

// instrumentedOverheadFailures gates the cost of instrumentation. Both
// legs of every cell come from the same run on the same machine, so
// unlike the baseline-file gates this one is absolute: the geometric
// mean of PPS/BasePPS across cells must stay above 1-maxOverhead
// (default 5%), and the instrumented steady state must not allocate.
func instrumentedOverheadFailures(measured []instrumentedResult, maxOverhead float64) []string {
	var fails []string
	var logSum float64
	n := 0
	for _, m := range measured {
		if m.BasePPS <= 0 {
			continue
		}
		n++
		logSum += math.Log(m.PPS / m.BasePPS)
		if m.AllocsPerOp >= 1 {
			fails = append(fails, fmt.Sprintf(
				"instrumented allocs: shards=%d filters=%d mix=%s: %.2f allocs/op (want 0)",
				m.Shards, m.Filters, m.Mix, m.AllocsPerOp))
		}
	}
	if n == 0 {
		return []string{"instrumented sweep produced no comparable cells"}
	}
	ratio := math.Exp(logSum / float64(n))
	if ratio < 1-maxOverhead {
		fails = append(fails, fmt.Sprintf(
			"instrumentation overhead: geomean %.1f%% of uninstrumented (floor %.0f%%)",
			ratio*100, (1-maxOverhead)*100))
	}
	return fails
}

// wildcardSweepSpec enumerates the wildcard/prefix cells: non-exact
// table sizes from 4k to 1M at two coarse-traffic fractions.
type wildcardSweepSpec struct {
	shards, pairs int
	nonExact      []int
	wildFracs     []float64
	// scanRefMax bounds the table size at which the linear-scan
	// reference is measured (it is O(nonExact) per packet and becomes
	// unmeasurable long before 1M).
	scanRefMax int
}

func defaultWildcardSweep() wildcardSweepSpec {
	return wildcardSweepSpec{
		shards:     4,
		pairs:      4096,
		nonExact:   []int{4096, 65536, 262144, 1 << 20},
		wildFracs:  []float64{0.5, 0.9},
		scanRefMax: 65536,
	}
}

// measureWildcard mirrors measureDataplane over the wildcard workload.
func measureWildcard(e *dataplane.Engine, pairs, nonExact int, wildFrac float64, goroutines int, dur time.Duration) float64 {
	var total atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := dataplane.WildcardWorkloadBatch(rng, pairs, nonExact, benchBatchSize, wildFrac)
			verdicts := make([]dataplane.Verdict, 0, benchBatchSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				verdicts = e.ClassifyInto(batch, verdicts)
				total.Add(benchBatchSize)
			}
		}(int64(w) + 1)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}

// wildcardAllocsPerOp mirrors classifyAllocsPerOp over the wildcard
// workload.
func wildcardAllocsPerOp(e *dataplane.Engine, pairs, nonExact int, wildFrac float64) float64 {
	rng := rand.New(rand.NewSource(99))
	batch := dataplane.WildcardWorkloadBatch(rng, pairs, nonExact, benchBatchSize, wildFrac)
	verdicts := make([]dataplane.Verdict, 0, benchBatchSize)
	return allocsPerOp(1000, func() { verdicts = e.ClassifyInto(batch, verdicts) })
}

// measureScanRef measures the pre-change alternative: matching each
// packet by linearly scanning every non-exact label, exactly as the
// old per-view scan list did. Returns packets/sec.
func measureScanRef(pairs, nonExact int, wildFrac float64, dur time.Duration) float64 {
	labels := dataplane.WildcardWorkloadLabels(nonExact)
	rng := rand.New(rand.NewSource(21))
	batch := dataplane.WildcardWorkloadBatch(rng, pairs, nonExact, benchBatchSize, wildFrac)
	deadline := time.Now().Add(dur)
	var packets uint64
	start := time.Now()
	for time.Now().Before(deadline) {
		for _, p := range batch {
			tup := p.Tuple()
			for j := range labels {
				if labels[j].Matches(tup) {
					break
				}
			}
		}
		packets += benchBatchSize
	}
	return float64(packets) / time.Since(start).Seconds()
}

func wildcardSweep(spec wildcardSweepSpec, dur time.Duration) []wildcardResult {
	var out []wildcardResult
	for _, nonExact := range spec.nonExact {
		e := dataplane.WildcardWorkloadEngine(spec.shards, spec.pairs, nonExact)
		scan := 0.0
		if nonExact <= spec.scanRefMax {
			scan = measureScanRef(spec.pairs, nonExact, 0.5, dur)
		}
		for _, frac := range spec.wildFracs {
			out = append(out, wildcardResult{
				Shards:      spec.shards,
				Pairs:       spec.pairs,
				NonExact:    nonExact,
				WildFrac:    frac,
				PPS:         measureWildcard(e, spec.pairs, nonExact, frac, 1, dur),
				ScanPPS:     scan,
				AllocsPerOp: wildcardAllocsPerOp(e, spec.pairs, nonExact, frac),
			})
		}
	}
	return out
}

// detectSweepSpec enumerates the detection cells: count-min geometry ×
// attacker count, matching internal/detect's BenchmarkObserve family.
type detectSweepSpec struct {
	geoms     []struct{ width, depth int }
	topk      int
	attackers []int
}

func defaultDetectSweep() detectSweepSpec {
	return detectSweepSpec{
		geoms:     []struct{ width, depth int }{{1024, 2}, {1024, 4}, {4096, 4}},
		topk:      128,
		attackers: []int{4, 64, 1024},
	}
}

// measureDetect runs single-goroutine batch observation against a warm
// engine for the given duration and returns packets/sec. Virtual time
// advances 500µs per batch so window rotations are exercised at their
// steady-state cadence.
func measureDetect(e *detect.Engine, attackers int, dur time.Duration) float64 {
	rng := rand.New(rand.NewSource(1))
	batch := detect.WorkloadBatch(rng, attackers, benchBatchSize)
	out := make([]detect.Detection, 0, benchBatchSize)
	now := sim.Time(0)
	for i := 0; i < 100; i++ { // warm every slab, flag what will flag
		now += 500 * time.Microsecond
		out = e.Observe(now, batch, out[:0])
	}
	var packets uint64
	deadline := time.Now().Add(dur)
	start := time.Now()
	for time.Now().Before(deadline) {
		now += 500 * time.Microsecond
		out = e.Observe(now, batch, out[:0])
		packets += benchBatchSize
	}
	return float64(packets) / time.Since(start).Seconds()
}

// detectAllocsPerOp mirrors classifyAllocsPerOp over the observation
// workload.
func detectAllocsPerOp(e *detect.Engine, attackers int) float64 {
	rng := rand.New(rand.NewSource(99))
	batch := detect.WorkloadBatch(rng, attackers, benchBatchSize)
	out := make([]detect.Detection, 0, benchBatchSize)
	now := sim.Time(0)
	observe := func() {
		now += 500 * time.Microsecond
		out = e.Observe(now, batch, out[:0])
	}
	for i := 0; i < 100; i++ {
		observe()
	}
	return allocsPerOp(1000, observe)
}

func detectSweep(spec detectSweepSpec, dur time.Duration) []detectResult {
	var out []detectResult
	for _, g := range spec.geoms {
		for _, att := range spec.attackers {
			// A fresh engine per cell: attacker count shapes the summary
			// churn, which is part of what the cell measures.
			e := detect.WorkloadEngine(g.width, g.depth, spec.topk)
			out = append(out, detectResult{
				Width:       g.width,
				Depth:       g.depth,
				TopK:        spec.topk,
				Attackers:   att,
				PPS:         measureDetect(e, att, dur),
				AllocsPerOp: detectAllocsPerOp(detect.WorkloadEngine(g.width, g.depth, spec.topk), att),
			})
		}
	}
	return out
}

// detectRegressionFailures gates the detection sweep exactly as the
// wildcard gate does: one geometric-mean throughput floor across all
// matched cells, normalized by the main sweep's machine-speed ratio,
// plus the exact steady-state allocation gate per cell.
func detectRegressionFailures(baseline, measured []detectResult, tol, norm float64) (fails []string, matched int) {
	type dkey struct{ width, depth, topk, attackers int }
	base := make(map[dkey]detectResult, len(baseline))
	for _, c := range baseline {
		base[dkey{c.Width, c.Depth, c.TopK, c.Attackers}] = c
	}
	var logSum float64
	for _, m := range measured {
		b, ok := base[dkey{m.Width, m.Depth, m.TopK, m.Attackers}]
		if !ok || b.PPS <= 0 {
			continue
		}
		matched++
		logSum += math.Log(m.PPS / b.PPS)
		if m.AllocsPerOp > b.AllocsPerOp && m.AllocsPerOp >= 1 {
			fails = append(fails, fmt.Sprintf(
				"detect allocs regression: width=%d depth=%d attackers=%d: %.2f allocs/op (baseline %.2f)",
				m.Width, m.Depth, m.Attackers, m.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if matched == 0 {
		return []string{"no measured detect cell matches the baseline (stale trend file?)"}, 0
	}
	ratio := math.Exp(logSum/float64(matched)) / norm
	if ratio < 1-tol {
		fails = append(fails, fmt.Sprintf(
			"detect throughput regression: geomean %.1f%% of baseline (floor %.0f%%)",
			ratio*100, (1-tol)*100))
	}
	return fails, matched
}

// allocRegressionFailures gates the collateral-allocation contrast.
// The simulator is deterministic, so two gates apply: the in-run
// property (the allocator must beat the fixed policy on collateral at
// equal-or-better attack suppression — the reason internal/alloc
// exists), and byte-exact equality against the committed baseline,
// which catches unintended behavior drift anywhere in the
// detect→alloc→dataplane chain. Intentional behavior changes
// regenerate the trend file with -json.
func allocRegressionFailures(baseline, measured []experiments.AllocCell) (fails []string, matched int) {
	cells := make(map[string]experiments.AllocCell, len(measured))
	for _, m := range measured {
		cells[m.Policy] = m
	}
	fixed, okF := cells["fixed24"]
	alloc, okA := cells["alloc"]
	if !okF || !okA {
		return []string{"alloc sweep missing a policy cell"}, 0
	}
	if fixed.Aggregations == 0 || alloc.Aggregations == 0 {
		fails = append(fails, fmt.Sprintf(
			"alloc workload no longer forces aggregation (fixed=%d alloc=%d)",
			fixed.Aggregations, alloc.Aggregations))
	}
	if alloc.LegitBytes <= fixed.LegitBytes {
		fails = append(fails, fmt.Sprintf(
			"allocator collateral win lost: %d legit B delivered vs fixed %d",
			alloc.LegitBytes, fixed.LegitBytes))
	}
	if alloc.AttackBytes > fixed.AttackBytes {
		fails = append(fails, fmt.Sprintf(
			"allocator attack suppression regressed: %d attack B delivered vs fixed %d",
			alloc.AttackBytes, fixed.AttackBytes))
	}
	if alloc.CollateralAddrs >= fixed.CollateralAddrs {
		fails = append(fails, fmt.Sprintf(
			"allocator covered-addr collateral %d not below fixed %d",
			alloc.CollateralAddrs, fixed.CollateralAddrs))
	}
	base := make(map[string]experiments.AllocCell, len(baseline))
	for _, b := range baseline {
		base[b.Policy] = b
	}
	for _, m := range measured {
		b, ok := base[m.Policy]
		if !ok {
			continue
		}
		matched++
		if m != b {
			fails = append(fails, fmt.Sprintf(
				"alloc cell %q drifted from the deterministic baseline: measured %+v, baseline %+v",
				m.Policy, m, b))
		}
	}
	if matched == 0 {
		return []string{"no measured alloc cell matches the baseline (stale trend file?)"}, 0
	}
	return fails, matched
}

// parseGoroutines parses the -goroutines flag ("1,2,4,8").
func parseGoroutines(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad goroutine count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty goroutine list")
	}
	return out, nil
}

type cellKey struct {
	shards, filters int
	mix             string
	goroutines      int
}

// regressionFailures compares a fresh sweep against the committed
// baseline. Per-cell throughput on a shared runner is noisy, so the
// gate is the geometric-mean ratio (measured/baseline) per goroutine
// count: a real read-path regression depresses every cell at once,
// while one noisy cell cannot fail the build. Allocations are exact
// and gated per cell.
//
// With normalize set, every per-goroutine-count ratio is divided by
// min(1, global geomean ratio): a runner uniformly slower than the
// machine that produced the baseline is judged relative to its own
// overall speed, while a faster runner is never normalized *down* —
// otherwise healthy multi-core scaling against a single-core baseline
// would depress the 1-goroutine group below the floor and fail on
// improvement. The gate still catches the regression class the
// lock-free read path exists to prevent: groups collapsing relative
// to the machine's overall speed (e.g. a reintroduced lock convoying
// some goroutine counts). CI uses normalized mode because its runners
// differ from the baseline machine; same-machine runs should use the
// absolute gate.
// The returned norm is the machine-speed normalizer actually applied
// (1 when normalize is false), so downstream gates (the wildcard
// sweep) judge against the same machine-speed reference.
func regressionFailures(baseline, measured []dataplaneResult, tol float64, normalize bool) (fails []string, matched int, norm float64) {
	base := make(map[cellKey]dataplaneResult, len(baseline))
	for _, c := range baseline {
		base[cellKey{c.Shards, c.Filters, c.Mix, c.Goroutines}] = c
	}
	logRatioSum := map[int]float64{}
	cells := map[int]int{}
	type allocKey struct {
		shards, filters int
		mix             string
	}
	allocSeen := map[allocKey]bool{} // allocs are per (shards,filters,mix); report once
	for _, m := range measured {
		b, ok := base[cellKey{m.Shards, m.Filters, m.Mix, m.Goroutines}]
		if !ok || b.PPS <= 0 {
			continue
		}
		matched++
		logRatioSum[m.Goroutines] += math.Log(m.PPS / b.PPS)
		cells[m.Goroutines]++
		ak := allocKey{m.Shards, m.Filters, m.Mix}
		if m.AllocsPerOp > b.AllocsPerOp && m.AllocsPerOp >= 1 && !allocSeen[ak] {
			allocSeen[ak] = true
			fails = append(fails, fmt.Sprintf(
				"allocs regression: shards=%d filters=%d mix=%s: %.2f allocs/op (baseline %.2f)",
				m.Shards, m.Filters, m.Mix, m.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if matched == 0 {
		// A disjoint sweep would otherwise gate nothing and "pass".
		return []string{"no measured cell matches the baseline (stale trend file, or -goroutines differs from the baseline sweep?)"}, 0, 1
	}
	norm = 1.0
	if normalize {
		var logSum float64
		n := 0
		for g, s := range logRatioSum {
			logSum += s
			n += cells[g]
		}
		if n > 0 {
			norm = math.Min(1, math.Exp(logSum/float64(n)))
		}
	}
	var gors []int
	for g := range cells {
		gors = append(gors, g)
	}
	sort.Ints(gors)
	for _, g := range gors {
		ratio := math.Exp(logRatioSum[g]/float64(cells[g])) / norm
		if ratio < 1-tol {
			kind := "baseline"
			if normalize {
				kind = "baseline (machine-normalized)"
			}
			fails = append(fails, fmt.Sprintf(
				"throughput regression at %d goroutine(s): geomean %.1f%% of %s (floor %.0f%%)",
				g, ratio*100, kind, (1-tol)*100))
		}
	}
	return fails, matched, norm
}

// wildcardRegressionFailures gates the wildcard/prefix sweep: one
// geometric-mean throughput floor across all cells (the same
// noise-vs-collapse argument as the main sweep), plus the exact
// steady-state allocation gate per cell. norm is the machine-speed
// normalizer carried over from the main sweep (1 when unnormalized);
// using the main sweep's ratio keeps a runner that is uniformly slower
// from failing while still catching the wildcard path collapsing
// relative to the rest of the engine.
func wildcardRegressionFailures(baseline, measured []wildcardResult, tol, norm float64) (fails []string, matched int) {
	type wkey struct {
		shards, pairs, nonExact int
		wildFrac                float64
	}
	base := make(map[wkey]wildcardResult, len(baseline))
	for _, c := range baseline {
		base[wkey{c.Shards, c.Pairs, c.NonExact, c.WildFrac}] = c
	}
	var logSum float64
	for _, m := range measured {
		b, ok := base[wkey{m.Shards, m.Pairs, m.NonExact, m.WildFrac}]
		if !ok || b.PPS <= 0 {
			continue
		}
		matched++
		logSum += math.Log(m.PPS / b.PPS)
		if m.AllocsPerOp > b.AllocsPerOp && m.AllocsPerOp >= 1 {
			fails = append(fails, fmt.Sprintf(
				"wildcard allocs regression: nonexact=%d wildfrac=%.1f: %.2f allocs/op (baseline %.2f)",
				m.NonExact, m.WildFrac, m.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if matched == 0 {
		return []string{"no measured wildcard cell matches the baseline (stale trend file?)"}, 0
	}
	ratio := math.Exp(logSum/float64(matched)) / norm
	if ratio < 1-tol {
		fails = append(fails, fmt.Sprintf(
			"wildcard throughput regression: geomean %.1f%% of baseline (floor %.0f%%)",
			ratio*100, (1-tol)*100))
	}
	return fails, matched
}

func runRegression(path string, spec sweepSpec, wspec wildcardSweepSpec, dur time.Duration, tol, instrTol float64, normalize bool, metricsJSON string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: %v\n", err)
		return 2
	}
	var baseline benchOutput
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: decode %s: %v\n", path, err)
		return 2
	}
	if len(baseline.Dataplane) == 0 {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: %s has no dataplane cells\n", path)
		return 2
	}
	if len(baseline.DataplaneWildcard) == 0 {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: %s has no wildcard cells\n", path)
		return 2
	}
	if len(baseline.Detect) == 0 {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: %s has no detect cells\n", path)
		return 2
	}
	if len(baseline.DataplaneInstrumented) == 0 {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: %s has no instrumented cells\n", path)
		return 2
	}
	if len(baseline.Alloc) == 0 {
		fmt.Fprintf(os.Stderr, "aitf-bench: -regress: %s has no alloc cells\n", path)
		return 2
	}
	fmt.Fprintf(os.Stderr, "aitf-bench: regression sweep (%v per cell) against %s...\n", dur, path)
	measured := dataplaneSweep(spec, dur)
	fails, matched, norm := regressionFailures(baseline.Dataplane, measured, tol, normalize)
	wmeasured := wildcardSweep(wspec, dur)
	wfails, wmatched := wildcardRegressionFailures(baseline.DataplaneWildcard, wmeasured, tol, norm)
	fails = append(fails, wfails...)
	dmeasured := detectSweep(defaultDetectSweep(), dur)
	dfails, dmatched := detectRegressionFailures(baseline.Detect, dmeasured, tol, norm)
	fails = append(fails, dfails...)
	ameasured := experiments.AllocSweep()
	afails, amatched := allocRegressionFailures(baseline.Alloc, ameasured)
	fails = append(fails, afails...)
	// The instrumentation gate is in-run (instrumented vs base twin on
	// this machine), so it needs no baseline matching — the baseline
	// presence check above only keeps the trend file's section alive.
	imeasured, ireg := instrumentedSweep(defaultInstrumentedSweep(spec.goroutines), dur)
	fails = append(fails, instrumentedOverheadFailures(imeasured, instrTol)...)
	if metricsJSON != "" {
		if err := writeMetricsJSON(metricsJSON, ireg); err != nil {
			fmt.Fprintf(os.Stderr, "aitf-bench: -metrics-json: %v\n", err)
			return 2
		}
	}
	if len(fails) == 0 {
		fmt.Fprintf(os.Stderr, "aitf-bench: no perf regression (%d+%d+%d+%d of %d+%d+%d+%d cells compared, %d instrumented cells gated)\n",
			matched, wmatched, dmatched, amatched,
			len(measured), len(wmeasured), len(dmeasured), len(ameasured), len(imeasured))
		return 0
	}
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "aitf-bench: FAIL: %s\n", f)
	}
	return 1
}

// writeMetricsJSON dumps an instrumented engine's registry in the same
// JSON snapshot format the aitfd admin endpoint serves at
// /metrics.json ("-" writes to stdout).
func writeMetricsJSON(path string, reg *obs.Registry) error {
	if reg == nil {
		return fmt.Errorf("no instrumented registry (sweep did not run)")
	}
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	jsonOut := flag.Bool("json", false, "also write machine-readable results to -o")
	outPath := flag.String("o", "BENCH_dataplane.json", "output path for -json / baseline for -regress")
	sweepDur := flag.Duration("sweep", 100*time.Millisecond, "measurement window per data-plane sweep cell")
	goroutinesFlag := flag.String("goroutines", "1,2,4,8", "comma-separated goroutine counts for the sweep")
	regress := flag.Bool("regress", false, "run the sweep and fail on regression vs the -o baseline (skips experiments)")
	regressTol := flag.Float64("regress-tol", 0.30, "allowed fractional throughput drop before -regress fails")
	instrTol := flag.Float64("instr-tol", 0.05, "allowed fractional throughput cost of instrumentation before -regress fails")
	regressNorm := flag.Bool("regress-normalize", false, "normalize -regress by the global geomean ratio (for runners unlike the baseline machine)")
	metricsJSON := flag.String("metrics-json", "", "write the instrumented sweep's live registry as a JSON metrics snapshot here (\"-\" for stdout)")
	flag.Parse()

	gors, err := parseGoroutines(*goroutinesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aitf-bench: -goroutines: %v\n", err)
		os.Exit(2)
	}

	if *regress {
		os.Exit(runRegression(*outPath, defaultSweep(gors), defaultWildcardSweep(), *sweepDur, *regressTol, *instrTol, *regressNorm, *metricsJSON))
	}

	drivers, ids := experiments.All()
	want := flag.Args()
	if len(want) == 0 {
		want = ids
	}
	var results []experiments.Result
	for _, id := range want {
		d, ok := drivers[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "aitf-bench: unknown experiment %q (have %v)\n", id, ids)
			os.Exit(2)
		}
		res := d()
		res.Render(os.Stdout)
		results = append(results, res)
	}

	if !*jsonOut {
		// -metrics-json without -json still runs the (small)
		// instrumented sweep so the snapshot reflects live load.
		if *metricsJSON != "" {
			_, reg := instrumentedSweep(defaultInstrumentedSweep(gors), *sweepDur)
			if err := writeMetricsJSON(*metricsJSON, reg); err != nil {
				fmt.Fprintf(os.Stderr, "aitf-bench: -metrics-json: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	fmt.Fprintf(os.Stderr, "aitf-bench: running data-plane throughput sweep (%v per cell)...\n", *sweepDur)
	imeasured, ireg := instrumentedSweep(defaultInstrumentedSweep(gors), *sweepDur)
	out := benchOutput{
		GeneratedAt:           time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:            runtime.GOMAXPROCS(0),
		Experiments:           results,
		Dataplane:             dataplaneSweep(defaultSweep(gors), *sweepDur),
		DataplaneWildcard:     wildcardSweep(defaultWildcardSweep(), *sweepDur),
		DataplaneInstrumented: imeasured,
		Detect:                detectSweep(defaultDetectSweep(), *sweepDur),
		Alloc:                 experiments.AllocSweep(),
	}
	if *metricsJSON != "" {
		if err := writeMetricsJSON(*metricsJSON, ireg); err != nil {
			fmt.Fprintf(os.Stderr, "aitf-bench: -metrics-json: %v\n", err)
			os.Exit(1)
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "aitf-bench: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "aitf-bench: write %s: %v\n", *outPath, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "aitf-bench: wrote %s\n", *outPath)
}

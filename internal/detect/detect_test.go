package detect

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

func mkPkt(src, dst flow.Addr, payload int) *packet.Packet {
	return packet.NewData(src, dst, flow.ProtoUDP, 1234, 80, payload)
}

var (
	victim = flow.MakeAddr(10, 0, 0, 1)
	attckr = flow.MakeAddr(10, 9, 0, 2)
	legit  = flow.MakeAddr(10, 1, 0, 3)
)

func testConfig() Config {
	return Config{
		Width:        256,
		Depth:        4,
		TopK:         32,
		Window:       250 * time.Millisecond,
		ThresholdBps: 30_000,
		Seed:         7,
	}
}

// TestDetectsHeavyHitterOnce: a flood over threshold is flagged exactly
// once; traffic under threshold never is.
func TestDetectsHeavyHitterOnce(t *testing.T) {
	e := New(testConfig())
	var dets []Detection
	// 100 kB/s attack (1 kB every 10ms) alongside 4 kB/s legit.
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * 10 * time.Millisecond
		dets = e.Observe(now, []*packet.Packet{mkPkt(attckr, victim, 1000)}, dets)
		if i%25 == 0 {
			dets = e.Observe(now, []*packet.Packet{mkPkt(legit, victim, 1000)}, dets)
		}
	}
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want exactly 1: %+v", len(dets), dets)
	}
	d := dets[0]
	if d.Src != attckr || d.Dst != victim {
		t.Fatalf("flagged %v->%v, want %v->%v", d.Src, d.Dst, attckr, victim)
	}
	if want := flow.PairLabel(attckr, victim); d.Label != want {
		t.Fatalf("label = %v, want %v", d.Label, want)
	}
	// Detection latency is emergent: crossing 30 kB/s × 250 ms = 7.5 kB
	// takes 8 packets = 70-80ms here, not zero and well under a window
	// plus the accumulation time.
	if d.At <= 0 || d.At > 600*time.Millisecond {
		t.Fatalf("emergent Td = %v, want (0, 600ms]", d.At)
	}
}

// TestQuietReArm: an on-off flow is re-detected after going quiet for
// QuietWindows windows, and not before.
func TestQuietReArm(t *testing.T) {
	cfg := testConfig()
	cfg.QuietWindows = 2
	e := New(cfg)
	var dets []Detection
	burst := func(start sim.Time) {
		for i := 0; i < 50; i++ {
			dets = e.Observe(start+sim.Time(i)*10*time.Millisecond,
				[]*packet.Packet{mkPkt(attckr, victim, 1000)}, dets)
		}
	}
	burst(0)
	if len(dets) != 1 {
		t.Fatalf("first burst: %d detections", len(dets))
	}
	// Resume within the quiet horizon: still flagged, no re-detection.
	burst(sim.Time(600 * time.Millisecond))
	if len(dets) != 1 {
		t.Fatalf("fast resume re-detected: %d detections", len(dets))
	}
	// Resume after > 2 quiet windows: re-armed, detects again.
	burst(sim.Time(3 * time.Second))
	if len(dets) != 2 {
		t.Fatalf("slow resume not re-detected: %d detections", len(dets))
	}
}

// TestWhitelistNeverFlagged: whitelisted sources flood freely.
func TestWhitelistNeverFlagged(t *testing.T) {
	cfg := testConfig()
	cfg.Whitelist = map[flow.Addr]bool{attckr: true}
	e := New(cfg)
	var dets []Detection
	for i := 0; i < 500; i++ {
		dets = e.Observe(sim.Time(i)*time.Millisecond,
			[]*packet.Packet{mkPkt(attckr, victim, 1400)}, dets)
	}
	if len(dets) != 0 {
		t.Fatalf("whitelisted source flagged: %+v", dets)
	}
}

// TestEstimateOneSided: the sketch estimate is never below the true
// window byte count, for every key, across window rotations — the
// count-min guarantee the detection threshold relies on.
func TestEstimateOneSided(t *testing.T) {
	cfg := testConfig()
	cfg.Width = 64 // deliberately tiny: force collisions
	cfg.Depth = 2
	e := New(cfg)
	rng := rand.New(rand.NewSource(11))
	truth := map[flow.Addr]uint64{}
	winStart := sim.Time(0)
	for i := 0; i < 20_000; i++ {
		now := sim.Time(i) * 100 * time.Microsecond
		if now-winStart >= cfg.Window {
			// The engine rotates on its own aligned boundary; clearing
			// truth at the same boundary keeps the comparison valid
			// because the engine's window began at the first packet.
			winStart += cfg.Window * ((now - winStart) / cfg.Window)
			truth = map[flow.Addr]uint64{}
		}
		src := flow.MakeAddr(10, 2, byte(rng.Intn(4)), byte(rng.Intn(40)))
		size := 1 + rng.Intn(1400)
		e.Observe(now, []*packet.Packet{mkPkt(src, victim, size)}, nil)
		truth[src] += uint64(size)
		if i%37 == 0 {
			if est := e.Estimate(now, src, victim); est < truth[src] {
				t.Fatalf("packet %d: estimate %d < true %d for %v", i, est, truth[src], src)
			}
		}
	}
}

// TestBaselineTracksRate: the per-destination EWMA converges near the
// offered aggregate rate and decays when traffic stops.
func TestBaselineTracksRate(t *testing.T) {
	e := New(testConfig())
	// 20 kB/s to the victim for 5 seconds (under threshold: no flags).
	for i := 0; i < 100; i++ {
		e.Observe(sim.Time(i)*50*time.Millisecond, []*packet.Packet{mkPkt(legit, victim, 1000)}, nil)
	}
	got := e.Baseline(victim)
	if got < 10_000 || got > 30_000 {
		t.Fatalf("baseline = %.0f B/s, want ≈20000", got)
	}
	// Silence: a packet long after decays the EWMA sharply.
	e.Observe(sim.Time(30*time.Second), []*packet.Packet{mkPkt(legit, victim, 10)}, nil)
	if after := e.Baseline(victim); after > got/4 {
		t.Fatalf("baseline after silence = %.0f, want far below %.0f", after, got)
	}
}

// TestBaselineRelSuppresses: with a relative threshold, a flow that
// exceeds the absolute floor but not N× the victim's normal load is
// not flagged, while a genuinely abnormal flow is.
func TestBaselineRelSuppresses(t *testing.T) {
	cfg := testConfig()
	cfg.ThresholdBps = 10_000
	cfg.BaselineRel = 3
	e := New(cfg)
	// Establish a 40 kB/s normal load from the legit sender.
	for i := 0; i < 400; i++ {
		e.Observe(sim.Time(i)*25*time.Millisecond, []*packet.Packet{mkPkt(legit, victim, 1000)}, nil)
	}
	base := sim.Time(10 * time.Second)
	var dets []Detection
	// 12 kB/s: over the absolute floor, under 3× baseline — suppressed.
	mild := flow.MakeAddr(10, 3, 0, 1)
	for i := 0; i < 120; i++ {
		now := base + sim.Time(i)*25*time.Millisecond
		dets = e.Observe(now, []*packet.Packet{mkPkt(legit, victim, 1000)}, dets) // keep baseline alive
		if i%3 == 0 {
			dets = e.Observe(now, []*packet.Packet{mkPkt(mild, victim, 1000)}, dets)
		}
	}
	for _, d := range dets {
		if d.Src == mild {
			t.Fatalf("mild over-floor flow flagged despite baseline: %+v", d)
		}
	}
	// 400 kB/s: an order of magnitude over baseline — flagged.
	hot := flow.MakeAddr(10, 3, 0, 2)
	for i := 0; i < 200; i++ {
		now := base + sim.Time(5*time.Second) + sim.Time(i)*2500*time.Microsecond
		dets = e.Observe(now, []*packet.Packet{mkPkt(hot, victim, 1000)}, dets)
	}
	found := false
	for _, d := range dets {
		found = found || d.Src == hot
	}
	if !found {
		t.Fatal("abnormal flow not flagged under relative threshold")
	}
}

// TestTopKChurnBounded: rotating through far more sources than the
// summary holds neither panics nor grows memory, evictions are
// counted, and a persistent heavy hitter stays pinned in the summary.
func TestTopKChurnBounded(t *testing.T) {
	cfg := testConfig()
	cfg.TopK = 16
	e := New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		now := sim.Time(i) * 200 * time.Microsecond
		src := flow.MakeAddr(240, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		e.Observe(now, []*packet.Packet{mkPkt(src, victim, 100)}, nil)
		e.Observe(now, []*packet.Packet{mkPkt(attckr, victim, 1000)}, nil)
	}
	if got := len(e.TopK()); got != cfg.TopK {
		t.Fatalf("summary holds %d keys, want %d", got, cfg.TopK)
	}
	if e.Stats().Evictions == 0 {
		t.Fatal("no evictions under 50k-source churn")
	}
	pinned := false
	for _, h := range e.TopK() {
		pinned = pinned || (h.Src == attckr && h.Flagged)
	}
	if !pinned {
		t.Fatal("persistent heavy hitter lost from the summary under churn")
	}
}

// TestDeterminism: equal seeds and equal packet sequences produce
// identical detection sequences and stats.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) ([]Detection, Stats) {
		cfg := testConfig()
		cfg.Seed = seed
		e := New(cfg)
		rng := rand.New(rand.NewSource(99))
		var dets []Detection
		for i := 0; i < 5000; i++ {
			now := sim.Time(i) * time.Millisecond
			src := flow.MakeAddr(10, 4, 0, byte(rng.Intn(8)))
			dets = e.Observe(now, []*packet.Packet{mkPkt(src, victim, 900)}, dets)
		}
		return dets, e.Stats()
	}
	a1, s1 := run(7)
	a2, s2 := run(7)
	if len(a1) != len(a2) || s1 != s2 {
		t.Fatalf("same seed diverged: %d vs %d detections, %+v vs %+v", len(a1), len(a2), s1, s2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("detection %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

// TestObserveZeroAlloc: the steady-state batch observation path
// performs zero heap allocations per call — the engine can run inside
// the gateway's classification loop without feeding the GC.
func TestObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is not meaningful under the race detector")
	}
	e := WorkloadEngine(1024, 4, 128)
	rng := rand.New(rand.NewSource(5))
	batch := WorkloadBatch(rng, 32, 64)
	out := make([]Detection, 0, 64)
	now := sim.Time(0)
	// Warm: flag everything that will flag, populate every slab.
	for i := 0; i < 200; i++ {
		now += 500 * time.Microsecond
		out = e.Observe(now, batch, out[:0])
	}
	// Mallocs is process-wide: pin GOMAXPROCS to 1 for the window, as
	// testing.AllocsPerRun does, so no other goroutine's allocations are
	// charged to Observe, and yield once after the collection so the
	// runtime goroutines it readies run before the window. The fraction
	// is kept, unlike AllocsPerRun's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.Gosched()
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		now += 500 * time.Microsecond
		out = e.Observe(now, batch, out[:0])
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / runs; got != 0 {
		t.Fatalf("steady-state Observe allocates %v/op, want 0", got)
	}
}

// TestHostDetectorAdapter: the adapter satisfies the detector contract
// shape-wise and flags through to the engine.
func TestHostDetectorAdapter(t *testing.T) {
	d := NewHostDetector(testConfig())
	var label flow.Label
	flagged := false
	for i := 0; i < 100 && !flagged; i++ {
		p := mkPkt(attckr, victim, 1000)
		label, flagged = d.Observe(sim.Time(i)*5*time.Millisecond, p)
	}
	if !flagged {
		t.Fatal("adapter never flagged a 200 kB/s flood")
	}
	if want := flow.PairLabel(attckr, victim); label != want {
		t.Fatalf("label = %v, want %v", label, want)
	}
	if d.Engine.Stats().Detections != 1 {
		t.Fatalf("stats = %+v", d.Engine.Stats())
	}
}

// TestDisabledEngineMeasuresOnly: ThresholdBps <= 0 measures but never
// flags.
func TestDisabledEngineMeasuresOnly(t *testing.T) {
	cfg := testConfig()
	cfg.ThresholdBps = 0
	e := New(cfg)
	var dets []Detection
	for i := 0; i < 300; i++ {
		dets = e.Observe(sim.Time(i)*time.Millisecond, []*packet.Packet{mkPkt(attckr, victim, 1400)}, dets)
	}
	if len(dets) != 0 {
		t.Fatalf("disabled engine flagged: %+v", dets)
	}
	if st := e.Stats(); st.Packets != 300 || st.Bytes != 300*1400 {
		t.Fatalf("disabled engine did not measure: %+v", st)
	}
}

// TestTopKSpaceSavingInvariant: for keys currently held, the summary
// count is at least the key's true byte total since takeover, and err
// bounds the inherited overcount (count - err ≤ true ≤ count for keys
// never evicted... the weaker held-key bound is what space-saving
// guarantees).
func TestTopKSpaceSavingInvariant(t *testing.T) {
	tk := newTopK(8, 1)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30_000; i++ {
		key := uint64(rng.Intn(64))
		n := uint64(1 + rng.Intn(1000))
		ent := tk.touch(key, n, sim.Time(i), 0)
		truth[key] += n
		if ent.key != key {
			t.Fatalf("touch returned entry for key %d, want %d", ent.key, key)
		}
		if ent.count < ent.err {
			t.Fatalf("count %d < err %d", ent.count, ent.err)
		}
	}
	// Every held key's count upper-bounds its true total.
	for i := range tk.entries {
		e := &tk.entries[i]
		if e.count < truth[e.key]-min64(truth[e.key], e.err) {
			t.Fatalf("key %d: count %d, err %d, true %d", e.key, e.count, e.err, truth[e.key])
		}
	}
	// Heap root is the global minimum.
	minCount := ^uint64(0)
	for i := range tk.entries {
		if tk.entries[i].count < minCount {
			minCount = tk.entries[i].count
		}
	}
	if tk.entries[tk.heap[0]].count != minCount {
		t.Fatalf("heap root %d is not the min %d", tk.entries[tk.heap[0]].count, minCount)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestNoFalsePositiveUnderCollisions: soundness of the two-stage
// decision. A deliberately tiny sketch (width 8, depth 1) guarantees
// the legit flow's CMS estimate is massively inflated by the 200 hot
// attack keys it shares cells with — yet the legit flow, which stays
// under threshold, must never be flagged, because the space-saving
// lower bound cannot be inflated by collisions.
func TestNoFalsePositiveUnderCollisions(t *testing.T) {
	cfg := testConfig()
	cfg.Width = 8
	cfg.Depth = 1
	cfg.TopK = 512
	e := New(cfg)
	var dets []Detection
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40_000; i++ {
		now := sim.Time(i) * 100 * time.Microsecond
		// 200 hot sources, each far over threshold in aggregate cells.
		hot := flow.MakeAddr(240, 5, byte(rng.Intn(200)>>8), byte(rng.Intn(200)))
		dets = e.Observe(now, []*packet.Packet{mkPkt(hot, victim, 1400)}, dets)
		// The legit flow: 1000B every 100ms = ~2500B per 250ms window,
		// a third of the 7500B threshold.
		if i%1000 == 0 {
			dets = e.Observe(now, []*packet.Packet{mkPkt(legit, victim, 1000)}, dets)
		}
	}
	if est := e.Estimate(sim.Time(4*time.Second), legit, victim); est < 7500 {
		t.Logf("note: collision pressure lower than intended (est=%d)", est)
	}
	for _, d := range dets {
		if d.Src == legit {
			t.Fatalf("under-threshold flow framed by sketch collisions: %+v", d)
		}
		if d.LowBytes <= uint64(cfg.ThresholdBps*cfg.Window.Seconds()) {
			t.Fatalf("detection reported without a sound lower bound: %+v", d)
		}
	}
	if len(dets) == 0 {
		t.Fatal("no hot source detected at all")
	}
}

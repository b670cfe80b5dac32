package main

import (
	"math/rand"
	"time"

	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/traceback"
)

const (
	replaySamples = 1024
	replayIters   = 200000
)

// replayLayers times each layer's public entry point, called from
// outside on inputs sampled from the traffic the chain just carried.
func replayLayers(rg *rig, fl *flood, l metricSet) {
	tr := rg.tr
	rng := rand.New(rand.NewSource(tr.seed ^ 0x7265706c))
	recA := traceback.NewRecorder(aGWAddr, []byte(tr.secretA))
	recV := traceback.NewRecorder(vGWAddr, []byte(tr.secretV))

	// Legit datagrams as a_gw and v_gw receive them, in popularity mix.
	pkts := make([]*packet.Packet, 0, 2*replaySamples)
	tuples := make([]flow.Tuple, 0, replaySamples)
	for i := 0; i < replaySamples; i++ {
		rank := tr.draw(rng)
		t := tr.tuple(rank)
		tuples = append(tuples, t)
		s := &tr.sources[rank]
		atA := packet.NewData(t.Src, t.Dst, t.Proto, t.SrcPort, t.DstPort, rng.Intn(legitMaxPayload+1))
		atA.Path = append(atA.Path, s.upstream...)
		atV := atA.Clone()
		atV.RecordRoute(aGWAddr, recA.Nonce(flow.Tuple{Src: t.Src, Dst: t.Dst}))
		pkts = append(pkts, atA, atV)
	}
	wires := make([][]byte, len(pkts))
	for i, p := range pkts {
		b, err := packet.Marshal(p)
		if err != nil {
			panic(err) // the samples are well-formed by construction
		}
		wires[i] = b
	}

	ns, allocs := opCost(replayIters, func(i int) {
		p := packet.Get()
		if err := packet.UnmarshalInto(p, wires[i%len(wires)]); err != nil {
			panic(err)
		}
		p.Release()
	})
	l.set("packet.decode_ns", ns, "ns")
	l.set("packet.decode_allocs", allocs, "allocs")
	buf := make([]byte, 0, 2048)
	ns, allocs = opCost(replayIters, func(i int) {
		buf, _ = packet.AppendMarshal(buf[:0], pkts[i%len(pkts)])
	})
	l.set("packet.encode_ns", ns, "ns")
	l.set("packet.encode_allocs", allocs, "allocs")

	pairs := make([]flow.Tuple, len(tuples))
	paths := make([][]packet.RREntry, len(tuples))
	for i, t := range tuples {
		pairs[i] = flow.Tuple{Src: t.Src, Dst: t.Dst}
		paths[i] = []packet.RREntry{
			{Router: aGWAddr, Nonce: recA.Nonce(pairs[i])},
			{Router: vGWAddr, Nonce: recV.Nonce(pairs[i])},
		}
	}
	ns, allocs = opCost(replayIters/4, func(i int) { recA.Nonce(pairs[i%len(pairs)]) })
	l.set("traceback.nonce_ns", ns, "ns")
	l.set("traceback.nonce_allocs", allocs, "allocs")
	if fl != nil {
		// Evidence a_gw checks: the route record of an attack packet.
		ns, _ = opCost(replayIters/4, func(i int) {
			if !recA.Verify(paths[i%len(paths)], pairs[i%len(pairs)]) {
				panic("replayed evidence does not verify")
			}
		})
		l.set("traceback.verify_ns", ns, "ns")
	}
	for _, p := range pkts {
		p.Release()
	}

	replayClassify(rg, fl, tuples, l)
	replayDetect(rg, tuples, rng, l)

	ns, _ = opCost(replayIters/10, func(int) {
		if _, err := rg.book.Resolve(vGWAddr); err != nil {
			panic(err)
		}
	})
	l.set("wire.resolve_ns", ns, "ns")
}

// replayClassify loads a fresh engine with a_gw's live filters and
// classifies sampled tuples: legit ones miss; on the flood workload
// the attack tuples a_gw filtered hit.
func replayClassify(rg *rig, fl *flood, legit []flow.Tuple, l metricSet) {
	const now = time.Second
	cfg := dataplane.Config{
		Shards:         rg.agw.DataPlane().Shards(),
		FilterCapacity: rg.agw.DataPlane().FilterCapacity(),
		ShadowCapacity: rg.agw.DataPlane().ShadowCapacity(),
		Evict:          filter.RejectNew,
		ShadowLookup:   true,
		Clock:          dataplane.ClockFunc(func() filter.Time { return now }),
	}
	eng := dataplane.New(cfg)
	replay := legit
	if fl != nil {
		replay = nil
	}
	for _, fe := range rg.agw.DataPlane().FilterEntries() {
		if err := eng.Install(fe.Label, 0, time.Hour); err != nil {
			panic(err)
		}
		if fl != nil {
			replay = append(replay, flow.Tuple{Src: fe.Label.Src, Dst: victimAddr, Proto: flow.ProtoUDP, SrcPort: 4000, DstPort: attackPort})
		}
	}
	if len(replay) == 0 {
		replay = legit
	}
	ns, _ := opCost(replayIters, func(i int) { eng.ClassifyTuple(replay[i%len(replay)], attackPayload) })
	l.set("dataplane.classify_ns", ns, "ns")

	// Installs into fresh engines of a_gw's geometry, pair labels as
	// the protocol installs them.
	const batch = 512
	var total time.Duration
	for rep := 0; rep < 8; rep++ {
		eng := dataplane.New(cfg)
		labels := make([]flow.Label, batch)
		for i := range labels {
			labels[i] = flow.PairLabel(attackAddr(rep*batch+i), victimAddr)
		}
		start := time.Now()
		for _, lb := range labels {
			if err := eng.Install(lb, 0, time.Hour); err != nil {
				panic(err)
			}
		}
		total += time.Since(start)
	}
	l.set("dataplane.install_ns", float64(total.Nanoseconds())/(8*batch), "ns")
}

// replayDetect feeds sampled legit tuples to a fresh engine configured
// as v_gw's detector. On clean-forward v_gw runs no detector, and the
// reference flood phase supplies the figure.
func replayDetect(rg *rig, legit []flow.Tuple, rng *rand.Rand, l metricSet) {
	det := rg.vgw.Detector()
	if det == nil {
		return
	}
	eng := detect.New(det.Config())
	payloads := make([]int, len(legit))
	for i := range payloads {
		payloads[i] = rng.Intn(legitMaxPayload + 1)
	}
	var now time.Duration
	ns, _ := opCost(replayIters, func(i int) {
		now += 20 * time.Microsecond // a 50k pps stream
		eng.ObserveTuple(now, legit[i%len(legit)], payloads[i%len(payloads)])
	})
	l.set("detect.observe_ns", ns, "ns")
}

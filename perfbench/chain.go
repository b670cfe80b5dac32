package main

import (
	"fmt"
	"time"

	"aitf/internal/wire"
)

const (
	setupReps     = 25
	warmupPackets = 2000
	warmupLimit   = 10 * time.Second
	sliceDur      = time.Second
)

// chainOpts selects one run of the loopback chain.
type chainOpts struct {
	seed    int64
	flood   bool          // v_gw defends the victim; attack rounds run
	measure time.Duration // measured time, after set-up
	trace   bool          // alternate untraced and traced slices
	setup   bool          // time setupReps full builds for setup_s
	fault   string        // "", "secret" or "drop"
}

// outcome is what a phase adds to the run's result line.
type outcome struct {
	e2e, layers       metricSet
	attempted, failed uint64
	problems          []string
	notes             []string
}

func newOutcome() *outcome { return &outcome{e2e: metricSet{}, layers: metricSet{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// label prefixes the phase's notes and problems with its name.
func (o *outcome) label(phase string, own bool) {
	if !own {
		phase += " (reference)"
	}
	for i := range o.notes {
		o.notes[i] = phase + ": " + o.notes[i]
	}
	for i := range o.problems {
		o.problems[i] = phase + ": " + o.problems[i]
	}
}

// merge folds a reference phase into the workload's own outcome.
func (o *outcome) merge(r *outcome) {
	o.e2e.merge(r.e2e)
	o.layers.merge(r.layers)
	o.attempted += r.attempted
	o.failed += r.failed
	o.problems = append(o.problems, r.problems...)
	o.notes = append(o.notes, r.notes...)
}

// countLegit adds one rig's legit packets to the operations judged.
func (o *outcome) countLegit(c genCounts) {
	o.attempted += c.sent
	o.failed += c.failed()
	if c.failed() > 0 {
		o.problem("legit traffic: %d lost, %d with a bad tuple or route record, %d unmatched, %d send errors of %d sent",
			c.lost, c.bad, c.unmatched, c.sendErrs, c.sent)
	}
}

// sliceTotals accumulates the measured slices of one kind.
type sliceTotals struct {
	proc      procDelta
	delivered uint64
}

func (s *sliceTotals) add(o sliceTotals) {
	s.proc.add(o.proc)
	s.delivered += o.delivered
}

func (s sliceTotals) cpuUsPerPkt() float64 {
	if s.delivered == 0 {
		return 0
	}
	return float64(s.proc.cpu.Nanoseconds()) / 1e3 / float64(s.delivered)
}

// runChain builds the chain (setupReps times when timing set-up),
// measures it, checks it, and, traced, replays each layer on the
// traffic it carried.
func runChain(o chainOpts) (*outcome, error) {
	out := newOutcome()
	tr := newTraffic(o.seed)
	// Shortest round: gap + burst + quiet. Route enough attack sources.
	maxRounds := int(o.measure/(gapMin+burstDur+quietDur)) + 2
	reps := 1
	if o.setup {
		reps = setupReps
	}
	var setups []float64
	var rg *rig
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if rg, err = buildRig(tr, o.flood, maxRounds, o.fault); err != nil {
			return nil, err
		}
		rg.startLoop(nil)
		// Set-up ends when the first window of packets is back: the
		// chain is bound, booted and forwarding. The longer warm-up
		// that follows, until caches and pools are hot, is not timed.
		if err := rg.waitArrived(window, warmupLimit); err != nil {
			rg.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < reps-1 {
			rg.stopLoop()
			rg.drain()
			out.countLegit(rg.gen.counts())
			rg.close()
		}
	}
	defer rg.close()
	if err := rg.waitArrived(warmupPackets, warmupLimit); err != nil {
		return nil, err
	}
	if o.setup {
		out.e2e.set("setup_s", medianFloat(setups), "s")
		out.notes = append(out.notes, fmt.Sprintf("set-up samples (s): %.4f", setups))
	}

	rg.stopLoop()
	var fl *flood
	if o.flood {
		fl = newFlood(rg, o.seed, rg.gen.now())
	}
	rg.startLoop(fl)

	// The run is cut into one-second slices and the end-to-end figures
	// are medians over the untraced ones, which resists bursts of
	// interference from outside the process. Traced slices, alternating
	// with them, give the per-layer figures.
	n := int(o.measure.Round(sliceDur) / sliceDur)
	if n < 1 {
		n = 1
	}
	if o.trace && n < 2 {
		n = 2
	}
	slice := o.measure / time.Duration(n)
	var plain, traced sliceTotals
	var pps, cpuUs, p50, p99, tracedCPU []float64
	latN := 0
	for i := 0; i < n; i++ {
		tracedSlice := o.trace && i%2 == 1
		rg.setTraced(tracedSlice)
		rg.gen.startSlice(!tracedSlice)
		d0 := rg.gen.counts().delivered
		p0 := sampleProc()
		time.Sleep(slice)
		p1 := sampleProc()
		d1 := rg.gen.counts().delivered
		lat := rg.gen.endSlice()
		st := sliceTotals{proc: p0.to(p1), delivered: d1 - d0}
		if tracedSlice {
			traced.add(st)
			tracedCPU = append(tracedCPU, st.cpuUsPerPkt())
			continue
		}
		plain.add(st)
		if st.delivered == 0 {
			continue
		}
		pps = append(pps, float64(st.delivered)/st.proc.wall.Seconds())
		cpuUs = append(cpuUs, st.cpuUsPerPkt())
		sortInt64(lat)
		p50 = append(p50, float64(percentile(lat, 0.50))/1e3)
		p99 = append(p99, float64(percentile(lat, 0.99))/1e3)
		latN += len(lat)
	}
	rg.setTraced(false)
	rg.stopLoop()
	rg.drain()

	c := rg.gen.counts()
	out.countLegit(c)

	e := out.e2e
	e.set("fwd_pps", medianFloat(pps), "1/s")
	e.set("fwd_p50_us", medianFloat(p50), "us")
	e.set("cpu_us_per_pkt", medianFloat(cpuUs), "us")
	out.notes = append(out.notes, fmt.Sprintf("forward rate per slice: %.0f", pps))
	if len(p99) > 0 {
		out.notes = append(out.notes, fmt.Sprintf("forward latency: %d samples in %d slices, each slice's p99 has about %d beyond it",
			latN, len(p99), latN/len(p99)/100))
	}

	l := out.layers
	l.set("wire.fwd_p99_us", medianFloat(p99), "us")
	l.set("runtime.allocs_per_pkt", float64(plain.proc.mallocs)/float64(plain.delivered), "allocs")
	l.set("runtime.gc_cpu_frac", plain.proc.gcFrac(), "ratio")
	l.set("proc.cpu_util_cores", plain.proc.cpu.Seconds()/plain.proc.wall.Seconds(), "cores")
	l.set("gen.window_timeouts", float64(c.lost), "count")
	if o.trace {
		if traced.delivered > 0 && plain.delivered > 0 {
			l.set("trace.overhead_pct", (medianFloat(tracedCPU)/medianFloat(cpuUs)-1)*100, "%")
		}
		tapMetrics(rg, l)
	}
	hopDrops(rg, l)
	checkFilters(rg, out)
	if fl != nil {
		floodMetrics(rg, fl, out)
	}
	if o.trace {
		replayLayers(rg, fl, l)
	}
	return out, nil
}

func tapMetrics(rg *rig, l metricSet) {
	perCall := func(ns, n int64) float64 { return float64(ns) / float64(n) }
	for _, t := range []struct {
		name string
		tp   *tap
	}{{"a_gw", rg.aTap}, {"v_gw", rg.vTap}} {
		if n := t.tp.dataN.Load(); n > 0 {
			l.set("wire."+t.name+".handle_data_ns", perCall(t.tp.dataNs.Load(), n), "ns")
		}
		if n := t.tp.ctrlN.Load(); n > 0 {
			l.set("wire."+t.name+".handle_ctrl_ns", perCall(t.tp.ctrlNs.Load(), n), "ns")
		}
	}
	if n := rg.gen.originateN.Load(); n > 0 {
		l.set("wire.originate_ns", perCall(rg.gen.originateNs.Load(), n), "ns")
	}
}

// hopDrops compares each hop's upstream data-sent count with the
// downstream data-received count. On loopback the difference is
// kernel socket-buffer loss.
func hopDrops(rg *rig, l metricSet) {
	const sent, recv = "aitf_node_data_packets_sent_total", "aitf_node_data_packets_received_total"
	senderSent, _ := rg.sender.Counts()
	_, victimRecv := rg.victim.Counts()
	diff := func(a, b uint64) float64 { return float64(int64(a - b)) }
	l.set("wire.hop_drops.sender-a_gw", diff(senderSent, registryValue(rg.aReg, recv)), "count")
	l.set("wire.hop_drops.a_gw-v_gw", diff(registryValue(rg.aReg, sent), registryValue(rg.vReg, recv)), "count")
	l.set("wire.hop_drops.v_gw-victim", diff(registryValue(rg.vReg, sent), victimRecv), "count")
}

// checkFilters fails the run if any filter on either gateway, or any
// detector flag, covers a legit source.
func checkFilters(rg *rig, out *outcome) {
	for name, gw := range map[string]*wire.Gateway{"a_gw": rg.agw, "v_gw": rg.vgw} {
		for _, fe := range gw.DataPlane().FilterEntries() {
			for rank := range rg.tr.sources {
				if fe.Label.Matches(rg.tr.tuple(rank)) {
					out.problem("%s filter %v covers legit source %v", name, fe.Label, rg.tr.sources[rank].addr)
					out.failed++
					break
				}
			}
		}
	}
	if det := rg.vgw.Detector(); det != nil {
		for _, hh := range det.TopK() {
			if _, legit := legitIndex(hh.Src); legit && hh.Flagged {
				out.problem("v_gw detector flagged legit source %v", hh.Src)
				out.failed++
			}
		}
	}
}

// floodMetrics judges the attack rounds and reports relief and block.
func floodMetrics(rg *rig, fl *flood, out *outcome) {
	var relief, block []float64
	var dets uint64
	for i, r := range fl.rounds {
		dets += r.detections
		if !r.ok {
			out.problem("attack round %d: %d detections, a_gw handshake not completed within %v", i, r.detections, roundTimeout)
			out.failed++
			continue
		}
		relief = append(relief, float64(r.reliefNs)/1e6)
		block = append(block, float64(r.blockNs)/1e6)
	}
	out.attempted += uint64(len(fl.rounds))
	if len(fl.rounds) == 0 {
		out.problem("no attack round completed")
		out.failed++
		return
	}
	out.e2e.set("relief_ms", medianFloat(relief), "ms")
	out.e2e.set("block_ms", medianFloat(block), "ms")
	out.notes = append(out.notes, fmt.Sprintf("attack: %d rounds, %d packets sent, %d reached v_gw, %d reached the victim, %d stop orders ignored",
		len(fl.rounds), fl.sent, rg.gen.att.nVGW.Load(), rg.gen.att.nVictim.Load(), rg.stops.orders.Load()))

	l := out.layers
	a := rg.agw.Stats()
	if passed := fl.sent - rg.gen.att.nVGW.Load(); passed > 0 {
		l.set("dataplane.drop_ratio", float64(a.FilterDrops)/float64(passed), "ratio")
	}
	l.set("detect.detections", float64(dets)/float64(len(fl.rounds)), "per_round")
	if a.ReqReceived > 0 {
		l.set("filter.policed_ratio", float64(a.ReqPoliced)/float64(a.ReqReceived), "ratio")
	}
	l.set("gen.late_max_ms", float64(fl.lateMax)/1e6, "ms")
}

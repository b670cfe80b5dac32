package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/traceback"
	"aitf/internal/wire"
)

// inflight is one legit packet the victim has not received yet.
type inflight struct {
	rank    int32
	payload uint16
	sent    int64 // ns since the generator's base
}

// pathCheck caches a source's route record once Recorder.Verify has
// accepted it: the gateways stamp every packet of a flow identically.
type pathCheck struct {
	ok             bool
	nonceA, nonceV uint64
}

// genCounts are the legit-traffic outcomes so far.
type genCounts struct {
	sent, delivered, lost, bad, unmatched, sendErrs uint64
}

func (c genCounts) failed() uint64 { return c.lost + c.bad + c.unmatched + c.sendErrs }

// generator drives the closed legit loop. It is the victim's handler:
// each delivery is matched to the oldest in-flight packet of its flow,
// checked, and replaced by a fresh one, so the window stays full.
type generator struct {
	tr     *traffic
	sender *wire.Node
	base   time.Time
	// recA and recV are the checker's recorders under the secrets the
	// gateways were configured with.
	recA, recV *traceback.Recorder
	att        *attackLog

	mu       sync.Mutex
	rng      *rand.Rand
	win      []inflight // oldest first
	verified []pathCheck
	refill   bool
	keepLat  bool
	lat      []int64
	c        genCounts
	// notify is closed once notifyAt packets have come back.
	notify   chan struct{}
	notifyAt uint64

	timeOriginate           atomic.Bool
	originateNs, originateN atomic.Int64
}

func newGenerator(tr *traffic, sender *wire.Node, fault string) *generator {
	secretA := tr.secretA
	if fault == "secret" {
		secretA += "-wrong"
	}
	return &generator{
		tr:       tr,
		sender:   sender,
		base:     time.Now(),
		recA:     traceback.NewRecorder(aGWAddr, []byte(secretA)),
		recV:     traceback.NewRecorder(vGWAddr, []byte(tr.secretV)),
		rng:      rand.New(rand.NewSource(tr.seed ^ 0x6c656769)),
		win:      make([]inflight, 0, window),
		verified: make([]pathCheck, legitSources),
		lat:      make([]int64, 0, 1<<18), // a second of deliveries
		refill:   true,
	}
}

func (g *generator) now() int64 { return int64(time.Since(g.base)) }

func (g *generator) counts() genCounts {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.c
}

// arrived returns a channel closed once n legit packets have come back
// to the victim, whether or not they passed the checks.
func (g *generator) arrived(n uint64) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	if g.c.delivered+g.c.bad >= n {
		close(ch)
	} else {
		g.notify, g.notifyAt = ch, n
	}
	return ch
}

// startSlice begins a measured slice; with keep, every delivery's
// one-way latency is sampled until endSlice.
func (g *generator) startSlice(keep bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.keepLat = keep
	g.lat = g.lat[:0]
}

// endSlice stops sampling and returns the slice's latencies; they stay
// valid until the next startSlice.
func (g *generator) endSlice() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.keepLat = false
	return g.lat
}

// Handle receives at the victim.
func (g *generator) Handle(_ *wire.Node, p *packet.Packet, _ flow.Addr) {
	now := g.now()
	defer p.Release()
	if p.IsControl() {
		return
	}
	if g.att != nil {
		if r, ok := g.att.index(p.Src); ok {
			g.att.atVictim[r].Store(now)
			g.att.nVictim.Add(1)
			return
		}
	}
	ai, ok := legitIndex(p.Src)
	g.mu.Lock()
	j := -1
	if ok {
		rank := g.tr.rankOf[ai]
		for k := range g.win {
			if g.win[k].rank == rank {
				j = k
				break
			}
		}
	}
	if j < 0 {
		g.c.unmatched++
		g.mu.Unlock()
		return
	}
	rec := g.win[j]
	copy(g.win[j:], g.win[j+1:])
	g.win = g.win[:len(g.win)-1]
	if g.checkLocked(rec, p) {
		g.c.delivered++
		if g.keepLat {
			g.lat = append(g.lat, now-rec.sent)
		}
	} else {
		g.c.bad++
	}
	if g.notify != nil && g.c.delivered+g.c.bad >= g.notifyAt {
		close(g.notify)
		g.notify = nil
	}
	if g.refill {
		g.sendLocked(g.drawLocked(g.now()))
	}
	g.mu.Unlock()
}

// checkLocked verifies a delivered legit packet: its 5-tuple, size and
// hop count, the upstream route record it left with, and the two
// entries a_gw and v_gw stamped, under the gateways' secrets.
func (g *generator) checkLocked(rec inflight, p *packet.Packet) bool {
	s := &g.tr.sources[rec.rank]
	if p.Dst != victimAddr || p.Proto != flow.ProtoTCP || p.SrcPort != s.sport ||
		p.DstPort != legitPort || p.PayloadLen != rec.payload || p.TTL != packet.DefaultTTL-2 {
		return false
	}
	up := len(s.upstream)
	if len(p.Path) != up+2 {
		return false
	}
	for i, e := range s.upstream {
		if p.Path[i] != e {
			return false
		}
	}
	ea, ev := p.Path[up], p.Path[up+1]
	if ea.Router != aGWAddr || ev.Router != vGWAddr {
		return false
	}
	c := &g.verified[rec.rank]
	if c.ok {
		return ea.Nonce == c.nonceA && ev.Nonce == c.nonceV
	}
	// Gateways stamp the flow's (src, dst) pair.
	t := flow.Tuple{Src: p.Src, Dst: p.Dst}
	if !g.recA.Verify(p.Path[up:up+1], t) || !g.recV.Verify(p.Path[up+1:], t) {
		return false
	}
	*c = pathCheck{ok: true, nonceA: ea.Nonce, nonceV: ev.Nonce}
	return true
}

// drawLocked picks the next legit packet and enters it in the window.
func (g *generator) drawLocked(now int64) inflight {
	rec := inflight{
		rank:    int32(g.tr.draw(g.rng)),
		payload: uint16(g.rng.Intn(legitMaxPayload + 1)),
		sent:    now,
	}
	g.win = append(g.win, rec)
	g.c.sent++
	return rec
}

// sendLocked originates a legit packet through the sender's socket.
// Two goroutines send; holding the lock across the send keeps each
// flow's packets on the wire in the order they entered the window, so
// FIFO matching at the victim pairs every delivery with its own send.
func (g *generator) sendLocked(rec inflight) {
	s := &g.tr.sources[rec.rank]
	p := packet.NewData(s.addr, victimAddr, flow.ProtoTCP, s.sport, legitPort, int(rec.payload))
	p.Path = append(p.Path, s.upstream...)
	var err error
	if g.timeOriginate.Load() {
		start := time.Now()
		err = g.sender.SendTo(aGWAddr, p)
		g.originateNs.Add(int64(time.Since(start)))
		g.originateN.Add(1)
	} else {
		err = g.sender.SendTo(aGWAddr, p)
	}
	p.Release()
	if err == nil {
		return
	}
	g.c.sendErrs++
	for k := range g.win {
		if g.win[k] == rec {
			copy(g.win[k:], g.win[k+1:])
			g.win = g.win[:len(g.win)-1]
			break
		}
	}
}

// sweep times out lost packets and tops the window up.
func (g *generator) sweep(now int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.win) > 0 && now-g.win[0].sent > int64(legitTimeout) {
		copy(g.win, g.win[1:])
		g.win = g.win[:len(g.win)-1]
		g.c.lost++
	}
	// One attempt per free slot: a failed send frees its slot again.
	for free := window - len(g.win); g.refill && free > 0; free-- {
		g.sendLocked(g.drawLocked(now))
	}
}

// flood paces attack rounds from the generator goroutine. Each round
// floods the victim from a fresh source for burstDur, open loop,
// ignoring stop orders; the round ends once a_gw has completed the
// handshake (or roundTimeout passed) and quietDur has elapsed.
type flood struct {
	rg  *rig
	rng *rand.Rand

	round   int
	state   roundState
	onset   int64
	next    int // next packet of the burst
	sport   uint16
	base    gatewayCounters
	sent    uint64
	lateMax int64
	rounds  []roundResult
}

type roundState int

const (
	roundGap roundState = iota
	roundBurst
	roundSettle
	roundsDone // every routed attack source has been used
)

type roundResult struct {
	reliefNs, blockNs int64
	detections        uint64
	ok                bool
}

const (
	burstPkts     = int(attackPPS * burstDur / time.Second)
	burstInterval = int64(time.Second / attackPPS)
	settlePoll    = int64(5 * time.Millisecond)
)

func newFlood(rg *rig, seed int64, now int64) *flood {
	f := &flood{rg: rg, rng: rand.New(rand.NewSource(seed ^ 0x666c6f6f))}
	f.onset = now + f.gap()
	return f
}

// gap is the quiet time before a round's onset, drawn so onsets fall
// at every phase of v_gw's detection window.
func (f *flood) gap() int64 {
	return int64(gapMin) + f.rng.Int63n(int64(gapMax-gapMin))
}

// step advances the round state machine and returns when it next
// needs to run.
func (f *flood) step(now int64) int64 {
	g := f.rg.gen
	switch f.state {
	case roundGap:
		if now < f.onset {
			return f.onset
		}
		if f.round >= len(g.att.atVGW) {
			f.state = roundsDone
			return now + int64(time.Hour)
		}
		f.base = f.rg.counters()
		f.sport = uint16(1024 + f.rng.Intn(60000))
		f.next = 0
		f.state = roundBurst
		fallthrough
	case roundBurst:
		for f.next < burstPkts {
			due := f.onset + int64(f.next)*burstInterval
			if now < due {
				return due
			}
			if late := now - due; late > f.lateMax {
				f.lateMax = late
			}
			p := packet.NewData(attackAddr(f.round), victimAddr, flow.ProtoUDP, f.sport, attackPort, attackPayload)
			if err := g.sender.SendTo(aGWAddr, p); err == nil {
				f.sent++
			}
			p.Release()
			f.next++
			now = g.now()
		}
		f.state = roundSettle
		return now + settlePoll
	case roundSettle:
		end := f.onset + int64(burstDur+quietDur)
		c := f.rg.counters()
		done := c.handshakesOK > f.base.handshakesOK || now-f.onset > int64(roundTimeout)
		if !done || now < end {
			return now + settlePoll
		}
		r := roundResult{
			detections: c.detections - f.base.detections,
			ok:         c.handshakesOK == f.base.handshakesOK+1 && c.detections == f.base.detections+1,
		}
		if t := g.att.atVictim[f.round].Load(); t > 0 {
			r.reliefNs = t - f.onset
		}
		if t := g.att.atVGW[f.round].Load(); t > 0 {
			r.blockNs = t - f.onset
		}
		f.rounds = append(f.rounds, r)
		f.round++
		f.onset = now + f.gap()
		f.state = roundGap
		return f.onset
	}
	return now + int64(time.Hour)
}

package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// Protocol addresses of the loopback chain sender — a_gw — v_gw — victim.
var (
	senderAddr = flow.MakeAddr(10, 9, 0, 2)
	aGWAddr    = flow.MakeAddr(10, 9, 0, 1)
	vGWAddr    = flow.MakeAddr(10, 0, 0, 1)
	victimAddr = flow.MakeAddr(10, 0, 0, 2)
)

// Legit traffic: a closed loop over a skewed population of sources.
const (
	legitSources    = 4096
	legitPort       = 443
	legitMaxPayload = 48
	window          = 16 // legit packets in flight
	upstreamShare   = 0.10
	upstreamHops    = 12
	legitTimeout    = time.Second
	// zipfOffset flattens the head of the 1/(rank+offset) popularity
	// curve: the hottest source sends about 1.6% of the legit packets,
	// far below the detection threshold at any rate this loop reaches.
	zipfOffset = 10
)

// Attack rounds: an open-loop flood from a fresh source per round.
const (
	attackPPS      = 5000
	attackPayload  = 500
	attackPort     = 53
	burstDur       = 100 * time.Millisecond
	quietDur       = 50 * time.Millisecond
	gapMin, gapMax = 20 * time.Millisecond, 70 * time.Millisecond
	roundTimeout   = time.Second
	detectBps      = 200000
	detectWindowMs = 50
)

// legitAddr maps a source index to its address in 10.64.0.0/12.
func legitAddr(i int) flow.Addr { return flow.MakeAddr(10, 64+byte(i>>8), byte(i), 7) }

func legitIndex(a flow.Addr) (int, bool) {
	o := a.Octets()
	if o[0] != 10 || o[1] < 64 || int(o[1]) >= 64+legitSources/256 || o[3] != 7 {
		return 0, false
	}
	return int(o[1]-64)<<8 | int(o[2]), true
}

// attackAddr is the fresh source of attack round r, in 10.200.0.0/16.
func attackAddr(r int) flow.Addr { return flow.MakeAddr(10, 200, byte(r>>8), byte(r)) }

func attackIndex(a flow.Addr) (int, bool) {
	if a>>16 != attackAddr(0)>>16 {
		return 0, false
	}
	return int(a & 0xffff), true
}

// source is one legit sender: a fixed 5-tuple, and for a share of
// them a long route record stamped by routers upstream of a_gw.
type source struct {
	addr     flow.Addr
	sport    uint16
	upstream []packet.RREntry
}

// traffic is everything a run generates from its seed: the legit
// population, its popularity curve, and the gateway secrets.
type traffic struct {
	seed    int64
	sources []source  // by popularity rank
	cdf     []float64 // cumulative popularity by rank
	rankOf  []int32   // address index -> rank
	secretA string
	secretV string
}

func newTraffic(seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	tr := &traffic{
		seed:    seed,
		sources: make([]source, legitSources),
		cdf:     make([]float64, legitSources),
		rankOf:  make([]int32, legitSources),
		secretA: fmt.Sprintf("agw-%016x", rng.Uint64()),
		secretV: fmt.Sprintf("vgw-%016x", rng.Uint64()),
	}
	// Popularity ranks land on random addresses, so the hot set is
	// spread over the address space (and over the engine's shards).
	perm := rng.Perm(legitSources)
	total := 0.0
	for rank := range tr.sources {
		ai := perm[rank]
		s := source{addr: legitAddr(ai), sport: uint16(1024 + rng.Intn(60000))}
		if rng.Float64() < upstreamShare {
			s.upstream = make([]packet.RREntry, upstreamHops)
			for h := range s.upstream {
				s.upstream[h] = packet.RREntry{Router: flow.MakeAddr(172, 16, byte(h), 1), Nonce: rng.Uint64()}
			}
		}
		tr.sources[rank] = s
		tr.rankOf[ai] = int32(rank)
		total += 1 / float64(rank+zipfOffset)
		tr.cdf[rank] = total
	}
	for i := range tr.cdf {
		tr.cdf[i] /= total
	}
	return tr
}

// draw picks a source rank by popularity.
func (tr *traffic) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(tr.cdf, rng.Float64())
	if r >= len(tr.cdf) {
		r = len(tr.cdf) - 1
	}
	return r
}

// tuple is the 5-tuple every packet of source rank carries.
func (tr *traffic) tuple(rank int) flow.Tuple {
	s := &tr.sources[rank]
	return flow.Tuple{Src: s.addr, Dst: victimAddr, Proto: flow.ProtoTCP, SrcPort: s.sport, DstPort: legitPort}
}

package flow

import (
	"testing"
	"testing/quick"
)

func TestAddrRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.3.1", "255.255.255.255", "192.168.1.77"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestMakeAddrOctets(t *testing.T) {
	a := MakeAddr(10, 20, 30, 40)
	if got := a.Octets(); got != [4]byte{10, 20, 30, 40} {
		t.Fatalf("Octets = %v", got)
	}
	if a.String() != "10.20.30.40" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestExactMatch(t *testing.T) {
	l := Exact(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80)
	hit := TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80)
	if !l.Matches(hit) {
		t.Fatal("exact label should match identical tuple")
	}
	misses := []Tuple{
		TupleOf(MakeAddr(1, 0, 0, 9), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80),
		TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 9), ProtoUDP, 1000, 80),
		TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoTCP, 1000, 80),
		TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1001, 80),
		TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 81),
	}
	for i, m := range misses {
		if l.Matches(m) {
			t.Errorf("miss %d matched: %v", i, m)
		}
	}
}

func TestPairLabelMatchesAnyProtoAndPorts(t *testing.T) {
	src, dst := MakeAddr(1, 1, 1, 1), MakeAddr(2, 2, 2, 2)
	l := PairLabel(src, dst)
	for _, p := range []Proto{ProtoUDP, ProtoTCP, ProtoICMP} {
		if !l.Matches(TupleOf(src, dst, p, 5, 6)) {
			t.Errorf("pair label should match proto %v", p)
		}
	}
	if l.Matches(TupleOf(dst, src, ProtoUDP, 5, 6)) {
		t.Error("pair label matched reversed tuple")
	}
}

func TestFromSourceToDestination(t *testing.T) {
	src, dst := MakeAddr(9, 9, 9, 9), MakeAddr(8, 8, 8, 8)
	if !FromSource(src).Matches(TupleOf(src, dst, ProtoTCP, 1, 2)) {
		t.Error("FromSource should match any destination")
	}
	if FromSource(src).Matches(TupleOf(dst, src, ProtoTCP, 1, 2)) {
		t.Error("FromSource matched wrong source")
	}
	if !ToDestination(dst).Matches(TupleOf(src, dst, ProtoTCP, 1, 2)) {
		t.Error("ToDestination should match any source")
	}
	if ToDestination(dst).Matches(TupleOf(dst, src, ProtoTCP, 1, 2)) {
		t.Error("ToDestination matched wrong destination")
	}
}

func TestCovers(t *testing.T) {
	src, dst := MakeAddr(1, 1, 1, 1), MakeAddr(2, 2, 2, 2)
	pair := PairLabel(src, dst)
	exact := Exact(src, dst, ProtoUDP, 1000, 80)
	if !pair.Covers(exact) {
		t.Error("pair should cover exact")
	}
	if exact.Covers(pair) {
		t.Error("exact should not cover pair")
	}
	if !pair.Covers(pair) {
		t.Error("label should cover itself")
	}
	all := Label{Wildcards: WildAll}
	if !all.Covers(pair) || !all.Covers(exact) {
		t.Error("WildAll should cover everything")
	}
	if pair.Covers(all) {
		t.Error("pair should not cover WildAll")
	}
	other := PairLabel(src, MakeAddr(3, 3, 3, 3))
	if pair.Covers(other) || other.Covers(pair) {
		t.Error("disjoint pairs should not cover each other")
	}
}

func TestCanonicalZeroesWildFields(t *testing.T) {
	l := Label{
		Src: MakeAddr(1, 2, 3, 4), Dst: MakeAddr(5, 6, 7, 8),
		Proto: ProtoTCP, SrcPort: 99, DstPort: 100,
		Wildcards: WildSrc | WildProto | WildDstPort,
	}
	c := l.Canonical()
	if c.Src != 0 || c.Proto != 0 || c.DstPort != 0 {
		t.Fatalf("wild fields not zeroed: %+v", c)
	}
	if c.Dst != l.Dst || c.SrcPort != l.SrcPort {
		t.Fatalf("concrete fields changed: %+v", c)
	}
	// Two labels differing only in wildcarded payload must share a key.
	l2 := l
	l2.Src = MakeAddr(9, 9, 9, 9)
	if l.Key() != l2.Key() {
		t.Fatal("keys differ for equal-meaning labels")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	labels := []Label{
		Exact(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80),
		PairLabel(MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2)),
		FromSource(MakeAddr(172, 16, 0, 1)),
		ToDestination(MakeAddr(10, 9, 8, 7)),
		{Wildcards: WildAll},
		Exact(MakeAddr(1, 1, 1, 1), MakeAddr(2, 2, 2, 2), ProtoICMP, 0, 0),
		Exact(MakeAddr(1, 1, 1, 1), MakeAddr(2, 2, 2, 2), Proto(42), 1, 2),
	}
	for _, l := range labels {
		s := l.String()
		got, err := ParseLabel(s)
		if err != nil {
			t.Fatalf("ParseLabel(%q): %v", s, err)
		}
		if got.Canonical() != l.Canonical() {
			t.Fatalf("round trip %q: got %+v want %+v", s, got, l)
		}
	}
}

func TestParseLabelErrors(t *testing.T) {
	bad := []string{
		"", "nonsense", "1.2.3.4 proto=udp sport=1 dport=2",
		"1.2.3.4->bad proto=udp sport=1 dport=2",
		"bad->1.2.3.4 proto=udp sport=1 dport=2",
		"1.2.3.4->5.6.7.8 proto=warp sport=1 dport=2",
		"1.2.3.4->5.6.7.8 proto=udp sport=huge dport=2",
		"1.2.3.4->5.6.7.8 proto=udp sport=1 dport=70000",
		"1.2.3.4->5.6.7.8 proto=udp sport=1 zort=2",
		"1.2.3.4->5.6.7.8 proto=udp sport=1 dport",
	}
	for _, s := range bad {
		if _, err := ParseLabel(s); err == nil {
			t.Errorf("ParseLabel(%q) succeeded, want error", s)
		}
	}
}

func TestReverse(t *testing.T) {
	l := Exact(MakeAddr(1, 1, 1, 1), MakeAddr(2, 2, 2, 2), ProtoUDP, 10, 20)
	r := l.Reverse()
	if r.Src != l.Dst || r.Dst != l.Src || r.SrcPort != 20 || r.DstPort != 10 {
		t.Fatalf("Reverse = %+v", r)
	}
	if rr := r.Reverse(); rr != l {
		t.Fatalf("double Reverse = %+v, want original", rr)
	}
	// Wildcards follow their field.
	f := FromSource(MakeAddr(3, 3, 3, 3))
	fr := f.Reverse()
	if fr.Wildcards&WildSrc == 0 || fr.Wildcards&WildDst != 0 {
		t.Fatalf("Reverse wildcards = %v", fr.Wildcards)
	}
	if fr.Dst != MakeAddr(3, 3, 3, 3) {
		t.Fatalf("Reverse Dst = %v", fr.Dst)
	}
}

// Property: Matches is consistent with Covers — if a covers b then every
// tuple matching b also matches a (checked on the tuple derived from b's
// concrete fields).
func TestPropertyCoversImpliesMatches(t *testing.T) {
	f := func(src, dst uint32, proto uint8, sp, dp uint16, wildA, wildB uint8) bool {
		a := Label{Src: Addr(src), Dst: Addr(dst), Proto: Proto(proto),
			SrcPort: sp, DstPort: dp, Wildcards: Wild(wildA) & WildAll}
		b := Label{Src: Addr(src), Dst: Addr(dst), Proto: Proto(proto),
			SrcPort: sp, DstPort: dp, Wildcards: Wild(wildB) & WildAll}
		tup := Tuple{Src: Addr(src), Dst: Addr(dst), Proto: Proto(proto), SrcPort: sp, DstPort: dp}
		if a.Covers(b) && b.Matches(tup) && !a.Matches(tup) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: canonicalisation is idempotent and preserves matching.
func TestPropertyCanonicalIdempotent(t *testing.T) {
	f := func(src, dst uint32, proto uint8, sp, dp uint16, wild uint8, ts, td uint32, tp uint8, tsp, tdp uint16) bool {
		l := Label{Src: Addr(src), Dst: Addr(dst), Proto: Proto(proto),
			SrcPort: sp, DstPort: dp, Wildcards: Wild(wild) & WildAll}
		c := l.Canonical()
		if c.Canonical() != c {
			return false
		}
		tup := Tuple{Src: Addr(ts), Dst: Addr(td), Proto: Proto(tp), SrcPort: tsp, DstPort: tdp}
		return l.Matches(tup) == c.Matches(tup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: String/ParseLabel round-trips for canonical labels.
func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, wild uint8) bool {
		l := Label{Src: Addr(src), Dst: Addr(dst), Proto: ProtoUDP,
			SrcPort: sp, DstPort: dp, Wildcards: Wild(wild) & WildAll}.Canonical()
		got, err := ParseLabel(l.String())
		if err != nil {
			return false
		}
		return got.Canonical() == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrMask(t *testing.T) {
	a := MakeAddr(10, 1, 2, 3)
	for _, tc := range []struct {
		bits uint8
		want Addr
	}{
		{0, 0},
		{8, MakeAddr(10, 0, 0, 0)},
		{24, MakeAddr(10, 1, 2, 0)},
		{31, MakeAddr(10, 1, 2, 2)},
		{32, a},
		{40, a},
	} {
		if got := a.Mask(tc.bits); got != tc.want {
			t.Errorf("Mask(%d) = %v, want %v", tc.bits, got, tc.want)
		}
	}
}

func TestSrcPrefixLabelMatches(t *testing.T) {
	dst := MakeAddr(10, 9, 9, 9)
	l := SrcPrefixLabel(MakeAddr(240, 1, 2, 77), 24, dst)
	if l.Src != MakeAddr(240, 1, 2, 0) || l.SrcPrefixLen != 24 {
		t.Fatalf("constructor did not canonicalize: %+v", l)
	}
	for _, hit := range []Addr{
		MakeAddr(240, 1, 2, 0), MakeAddr(240, 1, 2, 77), MakeAddr(240, 1, 2, 255),
	} {
		if !l.Matches(TupleOf(hit, dst, ProtoUDP, 5, 80)) {
			t.Errorf("prefix label missed sibling %v", hit)
		}
	}
	for _, miss := range []Addr{
		MakeAddr(240, 1, 3, 0), MakeAddr(240, 0, 2, 77), MakeAddr(10, 1, 2, 5),
	} {
		if l.Matches(TupleOf(miss, dst, ProtoUDP, 5, 80)) {
			t.Errorf("prefix label matched outsider %v", miss)
		}
	}
	if l.Matches(TupleOf(MakeAddr(240, 1, 2, 1), MakeAddr(10, 9, 9, 8), ProtoUDP, 5, 80)) {
		t.Error("prefix label matched wrong destination")
	}
	// /32 degenerates to the plain pair label.
	if got := SrcPrefixLabel(MakeAddr(1, 2, 3, 4), 32, dst); got != PairLabel(MakeAddr(1, 2, 3, 4), dst) {
		t.Fatalf("/32 prefix label = %+v", got)
	}
	// Destination prefixes mirror.
	dl := DstPrefixLabel(MakeAddr(1, 2, 3, 4), MakeAddr(10, 9, 0, 0), 16)
	if !dl.Matches(TupleOf(MakeAddr(1, 2, 3, 4), MakeAddr(10, 9, 200, 1), ProtoTCP, 1, 2)) {
		t.Error("dst prefix label missed in-prefix destination")
	}
	if dl.Matches(TupleOf(MakeAddr(1, 2, 3, 4), MakeAddr(10, 8, 0, 1), ProtoTCP, 1, 2)) {
		t.Error("dst prefix label matched out-of-prefix destination")
	}
}

func TestPrefixCanonical(t *testing.T) {
	// Host bits are masked off.
	l := Label{Src: MakeAddr(240, 1, 2, 77), Dst: MakeAddr(10, 0, 0, 1),
		Wildcards: WildProto | WildSrcPort | WildDstPort, SrcPrefixLen: 24}
	c := l.Canonical()
	if c.Src != MakeAddr(240, 1, 2, 0) {
		t.Fatalf("host bits kept: %v", c.Src)
	}
	// Two sibling-host spellings of the same /24 share a key.
	l2 := l
	l2.Src = MakeAddr(240, 1, 2, 200)
	if l.Key() != l2.Key() {
		t.Fatal("keys differ for equal-meaning prefix labels")
	}
	// Prefix length >= 32 normalizes to the full address.
	l3 := l
	l3.SrcPrefixLen = 32
	if c3 := l3.Canonical(); c3.SrcPrefixLen != 0 || c3.Src != l.Src {
		t.Fatalf("/32 not normalized: %+v", c3)
	}
	// A wildcarded field drops its prefix length entirely.
	l4 := l
	l4.Wildcards |= WildSrc
	if c4 := l4.Canonical(); c4.SrcPrefixLen != 0 || c4.Src != 0 {
		t.Fatalf("wild src kept prefix: %+v", c4)
	}
}

func TestPrefixCovers(t *testing.T) {
	dst := MakeAddr(10, 0, 0, 9)
	p24 := SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 24, dst)
	p16 := SrcPrefixLabel(MakeAddr(240, 1, 0, 0), 16, dst)
	pair := PairLabel(MakeAddr(240, 1, 2, 7), dst)
	exact := Exact(MakeAddr(240, 1, 2, 7), dst, ProtoUDP, 1, 2)
	if !p24.Covers(pair) || !p24.Covers(exact) {
		t.Error("/24 should cover sibling pair and exact labels")
	}
	if !p16.Covers(p24) {
		t.Error("/16 should cover nested /24")
	}
	if p24.Covers(p16) {
		t.Error("/24 must not cover the enclosing /16")
	}
	if p24.Covers(PairLabel(MakeAddr(240, 1, 3, 1), dst)) {
		t.Error("/24 covered a pair outside the prefix")
	}
	if p24.Covers(SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 24, MakeAddr(10, 0, 0, 8))) {
		t.Error("covered same prefix toward a different destination")
	}
	if (Label{Wildcards: WildAll}).Covers(p24) != true {
		t.Error("WildAll should cover prefix labels")
	}
	if p24.Covers(ToDestination(dst)) {
		t.Error("prefix src must not cover wildcard src")
	}
}

func TestCoversSrcCoversDst(t *testing.T) {
	dst := MakeAddr(10, 0, 0, 9)
	p := SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 24, dst)
	if !p.CoversSrc(MakeAddr(240, 1, 2, 200)) || p.CoversSrc(MakeAddr(240, 1, 3, 0)) {
		t.Error("CoversSrc wrong for prefix label")
	}
	if !ToDestination(dst).CoversSrc(MakeAddr(1, 2, 3, 4)) {
		t.Error("wildcard src should cover any address")
	}
	if !p.CoversDst(dst) || p.CoversDst(MakeAddr(10, 0, 0, 8)) {
		t.Error("CoversDst wrong for concrete destination")
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	labels := []Label{
		SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 24, MakeAddr(10, 0, 0, 9)),
		DstPrefixLabel(MakeAddr(1, 2, 3, 4), MakeAddr(10, 16, 0, 0), 12),
		{Src: MakeAddr(9, 8, 7, 0), Dst: MakeAddr(6, 5, 0, 0),
			SrcPrefixLen: 25, DstPrefixLen: 17, Proto: ProtoTCP, SrcPort: 1, DstPort: 2},
	}
	for _, l := range labels {
		s := l.String()
		got, err := ParseLabel(s)
		if err != nil {
			t.Fatalf("ParseLabel(%q): %v", s, err)
		}
		if got.Canonical() != l.Canonical() {
			t.Fatalf("round trip %q: got %+v want %+v", s, got, l)
		}
	}
	// Spot-check the rendered form.
	if s := labels[0].String(); s != "240.1.2.0/24->10.0.0.9 proto=* sport=* dport=*" {
		t.Fatalf("prefix label renders as %q", s)
	}
	// /32 parses but normalizes away; bad prefix lengths are rejected.
	l, err := ParseLabel("1.2.3.4/32->5.6.7.8 proto=udp sport=1 dport=2")
	if err != nil || l.SrcPrefixLen != 0 {
		t.Fatalf("/32 parse: %+v, %v", l, err)
	}
	for _, bad := range []string{
		"1.2.3.4/0->5.6.7.8 proto=udp sport=1 dport=2",
		"1.2.3.4/33->5.6.7.8 proto=udp sport=1 dport=2",
		"1.2.3.4/x->5.6.7.8 proto=udp sport=1 dport=2",
		"1.2.3.4/->5.6.7.8 proto=udp sport=1 dport=2",
		"*/24->5.6.7.8 proto=udp sport=1 dport=2",
	} {
		if _, err := ParseLabel(bad); err == nil {
			t.Errorf("ParseLabel(%q) succeeded, want error", bad)
		}
	}
}

// Property: prefix Covers implies Matches on tuples drawn inside the
// covered label's own prefix.
func TestPropertyPrefixCoversImpliesMatches(t *testing.T) {
	f := func(src, dst, probe uint32, la, lb uint8) bool {
		a := Label{Src: Addr(src), Dst: Addr(dst), Wildcards: WildProto | WildSrcPort | WildDstPort,
			SrcPrefixLen: la % 33}.Canonical()
		b := Label{Src: Addr(src), Dst: Addr(dst), Wildcards: WildProto | WildSrcPort | WildDstPort,
			SrcPrefixLen: lb % 33}.Canonical()
		// A tuple inside b: b's prefix with arbitrary low bits from probe.
		bits := b.srcBits()
		low := Addr(probe) &^ (^Addr(0)).Mask(bits)
		tup := Tuple{Src: b.Src | low, Dst: Addr(dst), Proto: ProtoUDP}
		if !b.Matches(tup) {
			return false // tuple construction must land inside b
		}
		if a.Covers(b) && !a.Matches(tup) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchExact(b *testing.B) {
	l := Exact(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80)
	tup := TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !l.Matches(tup) {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMatchWildcard(b *testing.B) {
	l := PairLabel(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2))
	tup := TupleOf(MakeAddr(1, 0, 0, 1), MakeAddr(2, 0, 0, 2), ProtoUDP, 1000, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !l.Matches(tup) {
			b.Fatal("miss")
		}
	}
}

// TestLabelLessTotalOrder checks the allocation-free comparator used by
// the filter-table-pressure sorts is a strict total order (never both
// ways, equal labels unordered) and allocates nothing per comparison.
func TestLabelLessTotalOrder(t *testing.T) {
	dst := MakeAddr(10, 0, 0, 9)
	labels := []Label{
		PairLabel(MakeAddr(240, 1, 2, 3), dst),
		PairLabel(MakeAddr(240, 1, 2, 4), dst),
		PairLabel(MakeAddr(240, 1, 2, 3), MakeAddr(10, 0, 0, 8)),
		SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 24, dst),
		SrcPrefixLabel(MakeAddr(240, 1, 2, 0), 28, dst),
		FromSource(dst),
		Exact(MakeAddr(240, 1, 2, 3), dst, ProtoUDP, 5000, 80),
		Exact(MakeAddr(240, 1, 2, 3), dst, ProtoTCP, 5000, 80),
	}
	for i, a := range labels {
		for j, b := range labels {
			lt, gt := LabelLess(a, b), LabelLess(b, a)
			if lt && gt {
				t.Fatalf("labels %d,%d ordered both ways", i, j)
			}
			if i == j && (lt || gt) {
				t.Fatalf("label %d ordered against itself", i)
			}
			if i != j && a != b && !lt && !gt {
				t.Fatalf("distinct labels %d,%d unordered", i, j)
			}
		}
	}
	a, b := labels[0], labels[3]
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = LabelLess(a, b)
		_ = LabelLess(b, a)
	}); allocs != 0 {
		t.Fatalf("LabelLess allocates %v per run, want 0", allocs)
	}
}

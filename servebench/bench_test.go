package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lbclient"
	"repro/internal/registry"
	"repro/internal/server"
)

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.625, 35}, {0.99, 49.6}, {1, 50},
	} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty slice: want NaN")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	q := durQuantiles([]int64{4000, 1000, 3000, 2000}, 0.5, 1)
	if q[0] != 2.5 || q[1] != 4 {
		t.Errorf("durQuantiles = %v, want [2.5 4] (us)", q)
	}
}

func TestAtomicHistBuckets(t *testing.T) {
	for _, ns := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 123456789, 1 << 40} {
		lo, hi := bucketRange(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns lands in bucket [%v, %v)", ns, lo, hi)
		}
		if ns >= 64 && (hi-lo)/lo > 1.0/subBuckets+1e-12 {
			t.Errorf("%d ns: bucket [%v, %v) wider than 1/%d", ns, lo, hi, subBuckets)
		}
	}
}

func TestAtomicHistQuantile(t *testing.T) {
	var h atomicHist
	rng := rand.New(rand.NewPCG(1, 2))
	exact := make([]float64, 0, 100000)
	for i := 0; i < cap(exact); i++ {
		d := time.Duration(100 + rng.ExpFloat64()*2000)
		h.observe(d)
		exact = append(exact, float64(d))
	}
	before := h.snap()
	h.observe(time.Second) // a later observation the phase delta must exclude
	s := h.snap().minus(before)
	if s.count() != 1 {
		t.Fatalf("delta count = %d, want 1", s.count())
	}
	all := h.snap()
	if all.count() != uint64(len(exact))+1 {
		t.Fatalf("count = %d", all.count())
	}
	sorted := append([]float64(nil), exact...)
	slices.Sort(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := percentile(sorted, q)
		if got := before.quantileNs(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %v, exact %v", q, got, want)
		}
	}
	var sum float64
	for _, v := range exact {
		sum += v
	}
	if got, want := before.meanNs(), sum/float64(len(exact)); math.Abs(got-want) > 1 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	parent := span{at(0), at(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{at(10), at(20)}, {at(50), at(60)}}, 80},
		{"overlapping counted once", []span{{at(10), at(40)}, {at(30), at(50)}}, 60},
		{"nested", []span{{at(10), at(90)}, {at(20), at(30)}}, 20},
		{"clipped to parent", []span{{at(-50), at(10)}, {at(95), at(200)}}, 85},
		{"outside parent", []span{{at(200), at(300)}}, 100},
		{"unsorted", []span{{at(70), at(80)}, {at(0), at(10)}}, 80},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Microsecond {
			t.Errorf("%s: self = %v, want %dus", c.name, got, c.want)
		}
	}
}

// TestModelMatchesRegistry drives an in-process registry and the
// client model through the same admissions, rebids and departures and
// checks the model reproduces every sealed S bit for bit, and the
// sealed loads and payments.
func TestModelMatchesRegistry(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: serverRate})
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(5000)
	rng := rand.New(rand.NewPCG(7, 8))
	var live []int
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			v := 0.1 + 10*rng.Float64()
			id, err := reg.Add(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.set(id, v); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		for i := 0; i < 300; i++ {
			id := live[rng.IntN(len(live))]
			v := 0.1 + 10*rng.Float64()
			if err := reg.Update(id, v); err != nil {
				t.Fatal(err)
			}
			m.set(id, v)
		}
		for i := 0; i < 50; i++ {
			j := rng.IntN(len(live))
			if err := reg.Remove(live[j]); err != nil {
				t.Fatal(err)
			}
			m.clear(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		snap := reg.Seal()
		info := lbclient.EpochInfo{Epoch: snap.Epoch(), N: snap.N(), Rate: snap.Rate(), Sum: snap.Sum(), OptimalLatency: snap.OptimalLatency()}
		if err := m.checkSeal(info); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, id := range live[:10] {
			x, _ := snap.Load(id)
			if err := checkLoad(m.t[id], info, x); err != nil {
				t.Fatal(err)
			}
			c, b, _ := snap.Payment(id)
			if err := checkPayment(m.t[id], info, c, b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckSealRejectsMismatch feeds the checks seals and answers that
// differ from the model in one way each; every one must fail.
func TestCheckSealRejectsMismatch(t *testing.T) {
	m := newModel(4)
	m.set(0, 2)
	m.set(1, 4)
	m.set(3, 0.5)
	s, n := m.sum()
	good := lbclient.EpochInfo{Epoch: 5, N: n, Rate: 20, Sum: s, OptimalLatency: 20 * 20 / s}
	if err := m.checkSeal(good); err != nil {
		t.Fatalf("matching seal rejected: %v", err)
	}
	oneULP := good
	oneULP.Sum = math.Nextafter(s, math.Inf(1))
	oneULP.OptimalLatency = 20 * 20 / oneULP.Sum
	wrongN := good
	wrongN.N--
	wrongL := good
	wrongL.OptimalLatency = math.Nextafter(good.OptimalLatency, 0)
	for name, bad := range map[string]lbclient.EpochInfo{"S one ulp off": oneULP, "n off by one": wrongN, "L* one ulp off": wrongL} {
		if err := m.checkSeal(bad); err == nil {
			t.Errorf("%s: mismatched seal accepted", name)
		}
	}
	if err := checkLoad(2, good, math.Nextafter(20/(2*s), 0)); err == nil {
		t.Error("mismatched load accepted")
	}
	if err := checkPayment(2, good, 20/s, 0); err == nil {
		t.Error("mismatched payment accepted")
	}
	if err := m.set(4, 1); err == nil {
		t.Error("id beyond the model accepted")
	}
}

func TestCheckRecovered(t *testing.T) {
	last := lbclient.EpochInfo{Epoch: 9, N: 3, Sum: 1.25}
	line := sealLine(9, 3, 1.25)
	later := sealLine(12, 3, 1.25)
	for _, c := range []struct {
		w    workload
		line string
		ok   bool
	}{
		{workload{walSync: "seal", crash: true}, line, true},
		{workload{walSync: "seal", crash: true}, later, false},
		{workload{walSync: "seal", crash: true}, sealLine(9, 3, math.Nextafter(1.25, 2)), false},
		{workload{walSync: "batch"}, later, true},
		{workload{walSync: "batch"}, sealLine(8, 3, 1.25), false},
		{workload{walSync: "batch"}, sealLine(12, 2, 1.25), false},
	} {
		cfg := &config{w: c.w}
		err := checkRecovered(cfg, last, c.line)
		if (err == nil) != c.ok {
			t.Errorf("%+v %q: err = %v, want ok=%v", c.w, c.line, err, c.ok)
		}
	}
	if err := checkRecovered(&config{}, last, "garbage"); err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Errorf("garbage line: %v", err)
	}
}

// TestLoadgenPhases runs every client phase against an in-process
// server, so the race detector sees the load generator's goroutines, and
// checks the phases' counts add up with nothing failed.
func TestLoadgenPhases(t *testing.T) {
	reg, err := registry.New(registry.Config{Rate: serverRate})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Registry: reg, SealInterval: 5 * time.Millisecond})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	d, err := dial(addr, 256+3*8+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.admit(256); err != nil {
		t.Fatal(err)
	}
	if _, err := d.seal(); err != nil {
		t.Fatal(err)
	}
	rates, err := d.closedLoop(20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 5 || rates[0] <= 0 {
		t.Fatalf("closed-loop slice rates %v", rates)
	}
	open := &openResult{}
	if err := d.openLoop(20000, 200*time.Millisecond, open); err != nil {
		t.Fatal(err)
	}
	if open.sent == 0 || int64(len(open.lat)) != open.sent || open.flushes == 0 {
		t.Fatalf("open loop sent %d, timed %d, flushes %d", open.sent, len(open.lat), open.flushes)
	}
	ep := &epochResult{}
	if err := d.epochs(3, 64, 8, 8, 10, ep); err != nil {
		t.Fatal(err)
	}
	if len(ep.seal) != 3 || len(ep.query) != 30 {
		t.Fatalf("%d seals, %d queries", len(ep.seal), len(ep.query))
	}
	if a, ans, f := d.counts(); a != ans || f != 0 {
		t.Fatalf("attempted %d, answered %d, failed %d", a, ans, f)
	}
	if _, n := d.m.sum(); n != 256 {
		t.Fatalf("model holds %d agents after equal leaves and joins, want 256", n)
	}
}

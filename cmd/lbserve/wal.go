package main

// The -wal-demo mode: populate a journaled registry, serve mixed
// traffic with seals and a corrected (ejecting) epoch, kill the
// process image mid-flight (simulated: the writer abandons its
// unflushed buffer exactly as a kill -9 would), then restart, recover,
// and prove the recovered sealed epoch is bit-for-bit identical to the
// pre-crash one before serving resumes on the same log.

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wal"
)

// demoWorkers is the number of goroutines serving the demo's traffic.
const demoWorkers = 8

type walDemoConfig struct {
	dir       string
	sync      wal.SyncPolicy
	snapEvery int
	agents    int
	ops       int
	seed      uint64
	rate      float64
	shards    int
	ob        *obs.Observer
}

func runWALDemo(cfg walDemoConfig, out io.Writer) int {
	var met *obs.WALMetrics
	var rmet *obs.RegistryMetrics
	if cfg.ob != nil {
		met = cfg.ob.WALMetrics()
		rmet = cfg.ob.RegistryMetrics()
	}
	opts := wal.Options{Sync: cfg.sync, SnapshotEvery: cfg.snapEvery, Metrics: met}

	fmt.Fprintf(out, "Durable serving demo: %d agents, %d ops, sync=%s, snapshot every %d epochs\nlog: %s\n\n",
		cfg.agents, cfg.ops, cfg.sync, cfg.snapEvery, cfg.dir)

	// ---- first incarnation -------------------------------------------
	r, w, info, err := wal.Open(cfg.dir, opts, registry.Config{Rate: cfg.rate, Shards: cfg.shards, Metrics: rmet})
	if err != nil {
		fmt.Fprintln(out, "lbserve:", err)
		return 1
	}
	if !info.Fresh {
		fmt.Fprintf(out, "lbserve: %s already holds a log; pass an empty -wal-dir for the demo\n", cfg.dir)
		w.Close()
		return 1
	}
	start := time.Now()
	populate(r, cfg.agents, cfg.seed)
	served, epochs := drive(r, cfg.ops, cfg.seed)
	fmt.Fprintf(out, "served %d ops across %d workers in %s (%d epochs sealed)\n",
		cfg.ops, demoWorkers, served.Round(time.Millisecond), epochs)

	// A health-style corrected epoch: eject two agents, discount one.
	rng := rand.New(rand.NewPCG(cfg.seed, 0xda7a))
	c := &registry.Correction{
		Drop:    map[int]bool{rng.IntN(cfg.agents): true, rng.IntN(cfg.agents): true},
		Weights: map[int]float64{rng.IntN(cfg.agents): 0.5},
	}
	pre, err := r.SealCorrected(c)
	if err != nil {
		fmt.Fprintln(out, "lbserve:", err)
		return 1
	}
	if err := w.Sync(); err != nil { // the durable point the crash cannot take back
		fmt.Fprintln(out, "lbserve:", err)
		return 1
	}
	dropped, discounted := pre.Correction()
	fmt.Fprintf(out, "sealed corrected epoch %d: %d live, %d ejected, %d discounted, S=%.9g\n",
		pre.Epoch(), pre.N(), dropped, discounted, pre.Sum())

	// Unsynced writes the crash WILL take back (under -wal-sync none/
	// seal/batch these sit in the buffer or page cache).
	lost := 0
	for i := 0; i < 1000; i++ {
		if _, err := r.Add(0.1 + 10*rng.Float64()); err == nil {
			lost++
		}
	}
	w.Abandon() // kill -9
	fmt.Fprintf(out, "crash: process killed with %d admissions after the last fsync\n\n", lost)
	setup := time.Since(start)

	// ---- restart ------------------------------------------------------
	t0 := time.Now()
	r2, w2, rec, err := wal.Open(cfg.dir, opts, registry.Config{Rate: cfg.rate, Shards: cfg.shards, Metrics: rmet})
	if err != nil {
		fmt.Fprintln(out, "lbserve:", err)
		return 1
	}
	defer w2.Close()
	elapsed := time.Since(t0)
	fmt.Fprintf(out, "recovered in %s: snapshot epoch %d + %d replayed records (%d seals, %.1f MB",
		elapsed.Round(time.Millisecond), rec.SnapshotEpoch, rec.Records, rec.Seals, float64(rec.Bytes)/1e6)
	if rec.TornTail {
		fmt.Fprint(out, ", torn tail truncated")
	}
	fmt.Fprintln(out, ")")

	got := r2.Snapshot()
	identical := got.Epoch() == pre.Epoch() &&
		math.Float64bits(got.Sum()) == math.Float64bits(pre.Sum()) &&
		got.N() == pre.N()
	if identical {
		for _, id := range got.IDs() {
			a, _ := got.Value(id)
			b, ok := pre.Value(id)
			if !ok || math.Float64bits(a) != math.Float64bits(b) {
				identical = false
				break
			}
		}
	}
	fmt.Fprintf(out, "recovered epoch %d: %d live, S=%.9g — bit-identical to pre-crash seal: %v\n",
		got.Epoch(), got.N(), got.Sum(), identical)
	if !identical {
		fmt.Fprintln(out, "lbserve: recovered state diverged from the pre-crash seal")
		return 1
	}

	// Serving resumes on the same log: ids stay monotone, epochs advance.
	id, err := r2.Add(1.0)
	if err != nil {
		fmt.Fprintln(out, "lbserve:", err)
		return 1
	}
	next := r2.Seal()
	fmt.Fprintf(out, "resumed: admitted agent %d, sealed epoch %d (%d live)\n", id, next.Epoch(), next.N())
	fmt.Fprintf(out, "\ntotal: %s serving + %s recovery\n",
		setup.Round(time.Millisecond), elapsed.Round(time.Millisecond))
	return 0
}

// populate fills a fresh registry with a deterministic bid population
// and seals the starting epoch.
func populate(r *registry.Registry, agents int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x6c62272e07bb0142))
	for i := 0; i < agents; i++ {
		if _, err := r.Add(0.1 + 10*rng.Float64()); err != nil {
			panic(err) // bids are drawn positive; unreachable
		}
	}
	r.Seal()
}

// drive serves ops operations split across demoWorkers goroutines and
// reports the wall-clock time and the number of epochs sealed. Half
// the operations read the current snapshot (a load and an
// exclusion-latency query), the other half rebid an agent in the
// worker's own id stripe, and worker 0 seals every 4096 operations of
// the total. Each worker's draws are seeded by its index, so the final
// bids do not depend on scheduling.
func drive(r *registry.Registry, ops int, seed uint64) (time.Duration, uint64) {
	agents := r.Live()
	epoch0 := r.Snapshot().Epoch()
	const sealEvery = 4096 / demoWorkers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < demoWorkers; w++ {
		n := ops / demoWorkers
		if w == 0 {
			n += ops % demoWorkers
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
			lo := w * agents / demoWorkers
			hi := (w + 1) * agents / demoWorkers
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.5 {
					snap := r.Snapshot()
					id := rng.IntN(agents)
					snap.Load(id)
					snap.ExclusionLatency(id)
				} else if err := r.Update(lo+rng.IntN(hi-lo), 0.1+10*rng.Float64()); err != nil {
					panic(err) // own-stripe ids are always live; unreachable
				}
				if w == 0 && i%sealEvery == sealEvery-1 {
					r.Seal()
				}
			}
		}(w, n)
	}
	wg.Wait()
	return time.Since(start), r.Snapshot().Epoch() - epoch0
}

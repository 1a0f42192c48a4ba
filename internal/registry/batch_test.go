package registry

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// genBatch produces a random op mix over the population tracked in
// live (ids known to both registries), including deliberately invalid
// ops (bad bids, dead ids, bad kinds) so the differential covers the
// failure codes too.
func genBatch(rng *rand.Rand, live *[]int, nextDead int, size int) []BatchOp {
	ops := make([]BatchOp, 0, size)
	for len(ops) < size {
		switch k := rng.Intn(10); {
		case k < 4 || len(*live) == 0: // add
			if rng.Intn(12) == 0 {
				ops = append(ops, BatchOp{Kind: BatchAdd, T: -1}) // invalid
				continue
			}
			ops = append(ops, BatchOp{Kind: BatchAdd, T: 0.5 + rng.Float64()*9.5})
		case k < 7: // rebid
			id := (*live)[rng.Intn(len(*live))]
			switch rng.Intn(12) {
			case 0:
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: id, T: math.NaN()})
			case 1:
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: nextDead, T: 1}) // unknown
			default:
				ops = append(ops, BatchOp{Kind: BatchRebid, ID: id, T: 0.5 + rng.Float64()*9.5})
			}
		case k < 9: // leave
			i := rng.Intn(len(*live))
			id := (*live)[i]
			if rng.Intn(12) == 0 {
				ops = append(ops, BatchOp{Kind: BatchLeave, ID: -1}) // unknown
				continue
			}
			(*live)[i] = (*live)[len(*live)-1]
			*live = (*live)[:len(*live)-1]
			ops = append(ops, BatchOp{Kind: BatchLeave, ID: id})
		default:
			ops = append(ops, BatchOp{Kind: BatchKind(99), ID: 0, T: 1}) // bad kind
		}
	}
	return ops
}

// applySerial replays a batch through the one-at-a-time methods and
// returns the per-op results ApplyBatch should reproduce.
func applySerial(r *Registry, ops []BatchOp) []BatchResult {
	res := make([]BatchResult, 0, len(ops))
	for _, op := range ops {
		rr := BatchResult{ID: op.ID}
		switch op.Kind {
		case BatchAdd:
			id, err := r.Add(op.T)
			if err != nil {
				rr.Code = BatchBadValue
			} else {
				rr.ID = id
			}
		case BatchRebid:
			switch err := r.Update(op.ID, op.T); {
			case err == nil:
			case checkT(op.T) != nil:
				rr.Code = BatchBadValue
			default:
				rr.Code = BatchUnknownID
			}
		case BatchLeave:
			if err := r.Remove(op.ID); err != nil {
				rr.Code = BatchUnknownID
			}
		default:
			rr.Code = BatchBadKind
		}
		res = append(res, rr)
	}
	return res
}

// TestApplyBatchDifferential pins the batched entry point to the
// serial methods: identical per-op results (codes and assigned ids),
// bitwise-identical sealed epochs and identical mutation accounting,
// across seeds and shard counts.
func TestApplyBatchDifferential(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		for seed := int64(0); seed < 8; seed++ {
			bmet := obs.NewRegistryMetrics(obs.NewRegistry())
			smet := obs.NewRegistryMetrics(obs.NewRegistry())
			batched, err := New(Config{Rate: 100, Shards: shards, Metrics: bmet})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := New(Config{Rate: 100, Shards: shards, Metrics: smet})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			var live []int
			var res []BatchResult
			sc := &BatchScratch{}
			for round := 0; round < 6; round++ {
				ops := genBatch(rng, &live, 1<<30, 1+rng.Intn(400))
				want := applySerial(serial, ops)
				res = batched.ApplyBatch(ops, res[:0], sc)
				if len(res) != len(want) {
					t.Fatalf("shards=%d seed=%d round=%d: %d results, want %d", shards, seed, round, len(res), len(want))
				}
				for i := range want {
					if res[i] != want[i] {
						t.Fatalf("shards=%d seed=%d round=%d op=%d (%+v): got %+v want %+v",
							shards, seed, round, i, ops[i], res[i], want[i])
					}
				}
				for i, op := range ops {
					if op.Kind == BatchAdd && res[i].Code == BatchOK {
						live = append(live, res[i].ID) // later rounds rebid and remove it
					}
				}
				sb, ss := batched.Seal(), serial.Seal()
				if sb.Epoch() != ss.Epoch() || sb.N() != ss.N() ||
					math.Float64bits(sb.Sum()) != math.Float64bits(ss.Sum()) {
					t.Fatalf("shards=%d seed=%d round=%d: seal diverged: epoch %d/%d n %d/%d S %x/%x",
						shards, seed, round, sb.Epoch(), ss.Epoch(), sb.N(), ss.N(),
						math.Float64bits(sb.Sum()), math.Float64bits(ss.Sum()))
				}
				for _, id := range ss.IDs() {
					vb, okb := sb.Value(id)
					vs, _ := ss.Value(id)
					if !okb || math.Float64bits(vb) != math.Float64bits(vs) {
						t.Fatalf("shards=%d seed=%d round=%d id=%d: value %x want %x (ok=%v)",
							shards, seed, round, id, math.Float64bits(vb), math.Float64bits(vs), okb)
					}
				}
			}
			// One rebid per mutation of the drift budget, so the single
			// shard crosses a partial-sum rebuild on both paths.
			rebids := make([]BatchOp, rebuildEvery)
			for i := range rebids {
				rebids[i] = BatchOp{Kind: BatchRebid, ID: live[rng.Intn(len(live))], T: 0.5 + rng.Float64()*9.5}
			}
			applySerial(serial, rebids)
			batched.ApplyBatch(rebids, res[:0], sc)
			if sb, ss := batched.Seal(), serial.Seal(); math.Float64bits(sb.Sum()) != math.Float64bits(ss.Sum()) {
				t.Fatalf("shards=%d seed=%d: seal after rebids diverged: S %x/%x",
					shards, seed, math.Float64bits(sb.Sum()), math.Float64bits(ss.Sum()))
			}
			for _, c := range []struct {
				name string
				b, s *obs.Counter
			}{
				{"adds", bmet.Adds, smet.Adds},
				{"updates", bmet.Updates, smet.Updates},
				{"removes", bmet.Removes, smet.Removes},
				{"coalesced", bmet.Coalesced, smet.Coalesced},
				{"rebuilds", bmet.Rebuilds, smet.Rebuilds},
			} {
				if c.b.Value() != c.s.Value() {
					t.Fatalf("shards=%d seed=%d: %s batched %d, serial %d", shards, seed, c.name, c.b.Value(), c.s.Value())
				}
			}
			if shards == 1 && bmet.Rebuilds.Value() == 0 {
				t.Fatalf("seed=%d: no partial-sum rebuild exercised", seed)
			}
		}
	}
}

// TestRestoreAgentMatchesAdd pins the recovery insert to the live one:
// restoring the surviving agents of an Add/Remove history at their
// original ids, in any order, seals a bitwise-identical epoch.
func TestRestoreAgentMatchesAdd(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		live, err := New(Config{Rate: 100, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		bids := map[int]float64{}
		for i := 0; i < 2000; i++ {
			b := 0.5 + rng.Float64()*9.5
			id, err := live.Add(b)
			if err != nil {
				t.Fatal(err)
			}
			bids[id] = b
			if rng.Intn(3) == 0 {
				victim := rng.Intn(id + 1)
				if _, ok := bids[victim]; ok {
					if err := live.Remove(victim); err != nil {
						t.Fatal(err)
					}
					delete(bids, victim)
				}
			}
		}
		restored, err := New(Config{Rate: 100, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for id, b := range bids { // map order: restore order is irrelevant
			if err := restored.RestoreAgent(id, b); err != nil {
				t.Fatal(err)
			}
		}
		sl, sr := live.Seal(), restored.Seal()
		if sl.N() != sr.N() || math.Float64bits(sl.Sum()) != math.Float64bits(sr.Sum()) {
			t.Fatalf("shards=%d: n %d/%d S %x/%x", shards, sl.N(), sr.N(),
				math.Float64bits(sl.Sum()), math.Float64bits(sr.Sum()))
		}
		if err := restored.RestoreAgent(sl.IDs()[0], 1); err == nil {
			t.Fatalf("shards=%d: restore of a live id accepted", shards)
		}
	}
}

// TestApplyBatchIntraBatchDependency checks an op may target an id
// admitted earlier in the same batch, and that per-id order holds.
func TestApplyBatchIntraBatchDependency(t *testing.T) {
	r, err := New(Config{Rate: 10, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// id0 := add(2); rebid(id0, 4); id1 := add(8); leave(id1); then a
	// rebid of the not-yet-assigned id1+1 must fail.
	res := r.ApplyBatch([]BatchOp{
		{Kind: BatchAdd, T: 2},
		{Kind: BatchRebid, ID: 0, T: 4},
		{Kind: BatchAdd, T: 8},
		{Kind: BatchLeave, ID: 1},
		{Kind: BatchRebid, ID: 2, T: 1},
	}, nil, nil)
	want := []BatchResult{{ID: 0}, {ID: 0}, {ID: 1}, {ID: 1}, {ID: 2, Code: BatchUnknownID}}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("op %d: got %+v want %+v", i, res[i], want[i])
		}
	}
	snap := r.Seal()
	if snap.N() != 1 {
		t.Fatalf("N=%d, want 1", snap.N())
	}
	if v, ok := snap.Value(0); !ok || v != 4 {
		t.Fatalf("Value(0)=%v,%v, want 4", v, ok)
	}
}

// TestApplyBatchAllocFree pins the batch hot path at zero allocations
// once results and scratch are reused (steady state of the server's
// drain loop). Slot-array growth allocates, so the population is
// admitted first and the measured batches only rebid.
func TestApplyBatchAllocFree(t *testing.T) {
	r, err := New(Config{Rate: 100, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchAdd, T: float64(i + 1)}
	}
	res := make([]BatchResult, 0, n)
	sc := &BatchScratch{}
	res = r.ApplyBatch(ops, res, sc)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchRebid, ID: res[i].ID, T: float64(i + 2)}
	}
	if a := testing.AllocsPerRun(100, func() {
		res = r.ApplyBatch(ops, res[:0], sc)
	}); a != 0 {
		t.Fatalf("ApplyBatch allocates %.1f/op, want 0", a)
	}
}

// Package registry is the concurrent, sharded bid registry behind the
// coordinator's serving path. The paper's PR allocation and its
// compensation-and-bonus payments all price agents off one aggregate
// S = Σ 1/b_i; internal/alloc.Stream maintains that aggregate online
// but is single-goroutine, so a coordinator built on it serializes
// every bid, rebid and query. This package scales the same state
// across cores:
//
//   - Writes are lock-striped. Agents live in power-of-two many
//     shards (shard = id mod nShards); each shard keeps its bids in
//     an array indexed by local id (id / nShards), 0 marking an
//     absent id — one array read, no map on the hot path — plus a
//     compensated partial sum of 1/b_i maintained as a delta on every
//     mutation and periodically rebuilt per shard to cancel drift.
//     Concurrent mutations contend only when they hash to the same
//     shard.
//
//   - Reads are lock-free. Seal freezes the current population into
//     an immutable Snapshot — {S, R, epoch} plus the live ids and the
//     id-indexed bid array — and publishes it through an atomic
//     pointer. Readers answer x_i, L*, L_{-i} and per-agent payment
//     queries against the snapshot in O(1) with zero allocations and
//     no lock, while writers keep mutating the shards underneath.
//
// Determinism. The sealed aggregate is NOT the sum of the per-shard
// running partials (their value depends on the interleaving of
// mutations): Seal recomputes S as a single Neumaier summation over
// the live bids in ascending id order. That reduction depends only on
// the live (id, bid) set, so it is independent of the shard count,
// the worker count and the mutation history — and it is exactly what
// alloc.Stream.Sealed and alloc.ProportionalInto compute, which makes
// sealed-epoch aggregates, allocation vectors and payment sweeps
// bitwise-identical to a serial replay of the same events through
// alloc.Stream. The differential tests pin this down.
//
// Ids are assigned by a global monotonic counter and never recycled,
// matching alloc.Stream; the id-indexed structures therefore grow
// with the total number of agents ever admitted (16 bytes per id in
// the shards, 8 more in each sealed snapshot), which a long-lived
// coordinator bounds by recreating the registry at natural epochs
// (e.g. a mechanism round boundary).
package registry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// DefaultShards is the shard count used when Config.Shards is not
// positive: wide enough that a few dozen writer goroutines rarely
// collide, small enough that sealing's fixed per-shard work is noise.
const DefaultShards = 32

// rebuildEvery bounds the drift of a shard's running partial sum:
// after this many mutations the partial is recomputed from the live
// bids with compensated summation, mirroring alloc.Stream.
const rebuildEvery = 4096

// sealBlock is the number of consecutive ids one seal worker gathers
// at a time: 32 KiB of the sealed bid array, written sequentially.
const sealBlock = 4096

// Config configures a Registry.
type Config struct {
	// Rate is the total job arrival rate R. Like alloc.NewStream, a
	// negative or non-finite rate is rejected.
	Rate float64
	// Shards is the shard count, rounded up to a power of two;
	// non-positive means DefaultShards.
	Shards int
	// Metrics is the optional instrumentation bundle (nil disables).
	Metrics *obs.RegistryMetrics
	// Journal is the optional write-ahead hook on the mutation and
	// seal paths (nil disables; see Journal). internal/wal implements
	// it to make the registry crash-recoverable.
	Journal Journal
}

// Registry is the concurrent sharded bid registry. All methods are
// safe for concurrent use.
type Registry struct {
	shards  []shard
	mask    int // nShards - 1 (shard count is a power of two)
	bits    int // log2(shard count): id = local<<bits | shard
	nextID  atomic.Int64
	rateBit atomic.Uint64
	epoch   atomic.Uint64 // sealed epochs so far
	snap    atomic.Pointer[Snapshot]
	sealMu  sync.Mutex
	met     *obs.RegistryMetrics
	journal Journal // read under a shard lock or sealMu; see AttachJournal
}

// shard is one lock stripe: the bids of its ids indexed by local id
// and the shard's compensated running partial of Σ 1/b over them.
type shard struct {
	mu sync.Mutex

	// ts[local] is the bid of id local<<bits | shard, 0 when absent (a
	// live bid is always positive); both arrays grow to the shard's
	// highest admitted local id. stamp[local] records the epoch
	// counter at the id's last write, for coalesced-rebid accounting.
	ts    []float64
	stamp []uint64

	// Neumaier running partial of 1/ts over live ids, maintained as a
	// delta per mutation and rebuilt every rebuildEvery mutations.
	part numeric.KahanSum
	muts int
	live int

	_ [40]byte // pad to 128 bytes: hot shard fields off shared cache lines
}

// New returns an empty registry. The zero-agent state is sealed
// immediately, so Snapshot never returns nil.
func New(cfg Config) (*Registry, error) {
	if err := checkRate(cfg.Rate); err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	r := &Registry{shards: make([]shard, pow), mask: pow - 1, bits: shardBits(pow - 1), met: cfg.Metrics, journal: cfg.Journal}
	r.rateBit.Store(math.Float64bits(cfg.Rate))
	r.Seal()
	return r, nil
}

// Shards returns the shard count.
func (r *Registry) Shards() int { return r.mask + 1 }

// Rate returns the current total arrival rate.
func (r *Registry) Rate() float64 { return math.Float64frombits(r.rateBit.Load()) }

// SetRate changes the total arrival rate; it takes effect at the next
// Seal. A negative or non-finite rate is a *alloc.ValueError, the
// same contract as alloc.Stream. Rate changes serialize against seals
// (they share the seal mutex) so a journal sees them in the order the
// epochs observed them.
func (r *Registry) SetRate(rate float64) error {
	if err := checkRate(rate); err != nil {
		return err
	}
	r.sealMu.Lock()
	r.rateBit.Store(math.Float64bits(rate))
	if j := r.journal; j != nil {
		j.RateChanged(rate)
	}
	r.sealMu.Unlock()
	return nil
}

// Add registers an agent bidding t and returns its id. A non-positive
// or non-finite t is a *alloc.ValueError, the same contract as
// alloc.Stream.Add. Ids are globally monotone: an Add never reuses
// the id of a removed agent.
func (r *Registry) Add(t float64) (int, error) {
	if err := checkT(t); err != nil {
		return 0, err
	}
	id := int(r.nextID.Add(1) - 1)
	sh := &r.shards[id&r.mask]
	sh.mu.Lock()
	r.apply(sh, BatchAdd, id, t, r.journal)
	sh.mu.Unlock()

	r.met.Mutated("add", false)
	return id, nil
}

// Remove deregisters an agent.
func (r *Registry) Remove(id int) error {
	sh, err := r.locate(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	code, _ := r.apply(sh, BatchLeave, id, 0, r.journal)
	sh.mu.Unlock()
	if code != BatchOK {
		return unknownID(id)
	}

	r.met.Mutated("remove", false)
	return nil
}

// Update changes an agent's bid. A non-positive or non-finite t is a
// *alloc.ValueError, the same contract as alloc.Stream.Update.
func (r *Registry) Update(id int, t float64) error {
	if err := checkT(t); err != nil {
		return err
	}
	sh, err := r.locate(id)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	code, coalesced := r.apply(sh, BatchRebid, id, t, r.journal)
	sh.mu.Unlock()
	if code != BatchOK {
		return unknownID(id)
	}

	r.met.Mutated("update", coalesced)
	return nil
}

// apply performs one mutation of agent id on its shard sh, whose lock
// the caller holds: the insert, rebid or removal, the running
// partial, the live count, the drift-budget rebuild, the
// coalesced-rebid stamp and the journal record (j may be nil). It is
// the only code that writes a shard's bids, so Add, Update, Remove,
// ApplyBatch and RestoreAgent change S = Σ 1/b_i identically. A
// BatchAdd id must not be live; a rebid or leave of an id absent from
// the shard applies nothing and returns BatchUnknownID. coalesced
// reports a rebid whose predecessor was written after the last seal:
// it overwrote a value no epoch ever observed, so the epoch protocol
// coalesced the two updates into one from every reader's view.
func (r *Registry) apply(sh *shard, kind BatchKind, id int, t float64, j Journal) (code BatchCode, coalesced bool) {
	local := id >> r.bits
	if kind == BatchAdd {
		for len(sh.ts) <= local {
			sh.ts = append(sh.ts, 0)
			sh.stamp = append(sh.stamp, 0)
		}
		sh.ts[local], sh.stamp[local] = t, r.epoch.Load()
		sh.part.Add(1 / t)
		sh.live++
		sh.bump(r.met)
		if j != nil {
			j.Added(id, t)
		}
		return BatchOK, false
	}
	old := sh.bid(local)
	if old == 0 {
		return BatchUnknownID, false
	}
	if kind == BatchRebid {
		now := r.epoch.Load()
		coalesced = sh.stamp[local] == now
		sh.stamp[local] = now
		sh.part.Add(1 / t)
		sh.part.Add(-1 / old)
		sh.ts[local] = t
		sh.bump(r.met)
		if j != nil {
			j.Updated(id, t)
		}
		return BatchOK, coalesced
	}
	sh.part.Add(-1 / old)
	sh.ts[local] = 0
	sh.live--
	sh.bump(r.met)
	if j != nil {
		j.Removed(id)
	}
	return BatchOK, false
}

// Value returns the agent's current bid (not the sealed one; use
// Snapshot().Value for epoch-consistent reads).
func (r *Registry) Value(id int) (float64, bool) {
	sh, err := r.locate(id)
	if err != nil {
		return 0, false
	}
	sh.mu.Lock()
	t := sh.bid(id >> r.bits)
	sh.mu.Unlock()
	return t, t != 0
}

// Live returns the current live agent count (summing shard counters
// under their locks; prefer Snapshot().N for the sealed view).
func (r *Registry) Live() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		total += sh.live
		sh.mu.Unlock()
	}
	return total
}

// ApproxSum returns the delta-maintained aggregate: the per-shard
// running partials combined in shard order. Its last bits depend on
// the mutation interleaving — it is a monitoring value and a drift
// cross-check for the canonical sealed S, not a pricing input.
func (r *Registry) ApproxSum() float64 {
	var k numeric.KahanSum
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		k.Add(sh.part.Value())
		sh.mu.Unlock()
	}
	return k.Value()
}

// Snapshot returns the last sealed snapshot. The load is a single
// atomic pointer read: it never blocks, never allocates, and is safe
// to call from any number of goroutines while writers mutate and
// sealers publish.
func (r *Registry) Snapshot() *Snapshot {
	return r.snap.Load()
}

// Correction is the health adjustment a corrected seal applies on top
// of the live population — the registry-side half of the paper's
// verification loop run continuously (see internal/health). It never
// mutates the registry: the underlying bids stay whatever the agents
// bid, and a later uncorrected Seal sees them untouched.
type Correction struct {
	// Weights maps agent ids to capacity factors in (0, 1]: the sealed
	// epoch prices id as if it had bid t/weight, so a half-weight
	// (degraded or slow-starting) computer draws half the allocation
	// share its bid would earn. Weights outside (0, 1] or non-finite
	// are rejected; ids that are not live are ignored.
	Weights map[int]float64
	// Drop is the set of agent ids excluded from the sealed epoch
	// entirely (ejected computers). Ids that are not live are ignored;
	// an id that is both dropped and weighted is dropped.
	Drop map[int]bool
}

// empty reports whether the correction adjusts nothing.
func (c *Correction) empty() bool {
	return c == nil || (len(c.Weights) == 0 && len(c.Drop) == 0)
}

// validate rejects malformed weights up front, before any lock is
// taken.
func (c *Correction) validate() error {
	if c == nil {
		return nil
	}
	for _, w := range c.Weights {
		if !(w > 0 && w <= 1) || math.IsNaN(w) {
			return &alloc.ValueError{Field: "weight", Value: w}
		}
	}
	return nil
}

// Seal freezes the current population into a new immutable Snapshot,
// publishes it, and returns it. The shard locks are all held for the
// copy — one id-ordered gather of every bid, so writers queue behind
// a seal for O(ids ever admitted) — and the canonical aggregate is
// computed after they are released:
// one Neumaier pass over the live bids in ascending id order, the
// shard-count- and schedule-independent reduction shared with
// alloc.Stream.Sealed. Concurrent Seal calls serialize.
func (r *Registry) Seal() *Snapshot {
	snap, _ := r.SealCorrected(nil) // a nil correction cannot fail
	return snap
}

// SealCorrected seals an epoch with health corrections applied:
// dropped agents are absent from the snapshot (as if removed) and
// weighted agents are priced at bid t/weight (as if they had rebid),
// while the registry's own state is untouched. The canonical S is the
// same ascending-id Neumaier reduction as Seal, computed over the
// corrected bids — so the corrected epoch is bitwise identical to a
// serial alloc.Stream replay in which the dropped agents were removed
// and the weighted agents updated to t/weight, for any shard count,
// worker count and mutation history. It depends only on the live
// (id, bid) set and the correction, never on map iteration order.
func (r *Registry) SealCorrected(c *Correction) (*Snapshot, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	r.sealMu.Lock()
	defer r.sealMu.Unlock()
	start := time.Now()

	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
	maxID := int(r.nextID.Load())
	t := make([]float64, maxID)
	shards, mask, bits := r.shards, r.mask, r.bits
	// With every shard lock held the gather is read-only on the
	// shards, so contiguous id blocks fan out across workers, each
	// writing its block of t in order; on a single-core host
	// ForEachBlock degrades to the plain loop.
	parallel.ForEachBlock(maxID, sealBlock, 0, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			t[id] = shards[id&mask].bid(id >> bits)
		}
	})
	live := 0
	for i := range r.shards {
		live += r.shards[i].live
	}
	rate := r.Rate()
	epoch := r.epoch.Add(1)
	// The journal barrier: with every shard lock still held, mutations
	// journaled before this record are exactly those the copy above
	// observed (see Journal). The t slice handed over is the seal's
	// uncorrected working copy, valid only during the call.
	if j := r.journal; j != nil {
		j.Sealed(SealEvent{Epoch: epoch, Rate: rate, Next: maxID, Live: live, Correction: c, T: t})
	}
	for i := range r.shards {
		r.shards[i].mu.Unlock()
	}

	// Apply the correction to the sealed copy (never to the shards):
	// drops zero the bid, discounts reprice it at t/weight — exactly
	// what an alloc.Stream replay of the same adjustments produces.
	// Map iteration order is irrelevant: each entry pokes an
	// independent array element, and the aggregate below is a single
	// ascending-id pass.
	dropped, discounted := 0, 0
	if !c.empty() {
		for id := range c.Drop {
			if id >= 0 && id < len(t) && t[id] != 0 {
				t[id] = 0
				dropped++
			}
		}
		for id, w := range c.Weights {
			if id >= 0 && id < len(t) && t[id] != 0 && w != 1 {
				t[id] /= w
				discounted++
			}
		}
	}

	ids := make([]int, 0, live-dropped)
	var k numeric.KahanSum
	for id, v := range t {
		if v != 0 {
			k.Add(1 / v)
			ids = append(ids, id)
		}
	}
	snap := &Snapshot{
		epoch: epoch, rate: rate, s: k.Value(), ids: ids, t: t,
		dropped: dropped, discounted: discounted,
	}
	r.snap.Store(snap)
	r.met.Sealed(len(ids), time.Since(start).Seconds())
	// Deferred journal I/O happens here, outside the shard locks but
	// still serialized by the seal mutex.
	if j := r.journal; j != nil {
		j.Published(snap)
	}
	return snap, nil
}

// locate resolves an id to its shard, rejecting ids that were never
// assigned.
func (r *Registry) locate(id int) (*shard, error) {
	if !r.assigned(id) {
		return nil, unknownID(id)
	}
	return &r.shards[id&r.mask], nil
}

// assigned reports whether id was ever handed out by the id counter.
func (r *Registry) assigned(id int) bool {
	return id >= 0 && id < int(r.nextID.Load())
}

// bid returns the local id's bid, or 0 when absent (including local
// ids beyond the shard's arrays).
func (sh *shard) bid(local int) float64 {
	if local >= len(sh.ts) {
		return 0
	}
	return sh.ts[local]
}

// bump counts a mutation and rebuilds the running partial from the
// live bids when the drift budget is spent. Called with the shard
// lock held.
func (sh *shard) bump(met *obs.RegistryMetrics) {
	sh.muts++
	if sh.muts < rebuildEvery {
		return
	}
	sh.muts = 0
	var k numeric.KahanSum
	for _, v := range sh.ts {
		if v != 0 {
			k.Add(1 / v)
		}
	}
	// Restart the partial at the rebuilt sum with zero compensation.
	sh.part = numeric.KahanSum{}
	sh.part.Add(k.Value())
	met.Rebuilt()
}

// shardBits returns log2 of the shard count for the given mask.
func shardBits(mask int) int {
	bits := 0
	for m := mask; m > 0; m >>= 1 {
		bits++
	}
	return bits
}

func unknownID(id int) error {
	return fmt.Errorf("registry: unknown agent id %d", id)
}

// validBid is alloc.Stream's bid domain: positive and finite (NaN
// fails the comparison).
func validBid(t float64) bool {
	return t > 0 && t <= math.MaxFloat64
}

// checkT validates a bid with alloc.Stream's contract.
func checkT(t float64) error {
	if !validBid(t) {
		return &alloc.ValueError{Field: "t", Value: t}
	}
	return nil
}

// checkRate validates a rate with alloc.Stream's contract.
func checkRate(rate float64) error {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return &alloc.ValueError{Field: "rate", Value: rate}
	}
	return nil
}

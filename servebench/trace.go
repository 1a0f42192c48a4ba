package main

// The traced run. It hosts the serving stack in this process — wal.Open,
// then reg.AttachJournal(timingJournal{w}), then
// server.New(...).Serve(timingListener) — and drives it with the same
// phases as the untraced run. Every span is taken around a public call
// into a layer: the server's Read and Write on its connections (net),
// the time between them (server), the registry's calls into its
// journal (wal), direct Seal and Snapshot().Payment calls (registry),
// and replays of the captured request frames through wire.Reader,
// DecodeRequest, AppendResponse and registry.ApplyBatch. Nothing inside
// the program is instrumented beyond the obs bundles it already has.

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// captureCap bounds the request bytes captured per connection for the
// wire and registry replays (about 127k rebid frames).
const captureCap = 4 << 20

// serverRate is lbserve's default -rate, the rate the in-process
// registry is created with.
const serverRate = 20

// walLayer holds what the journal measured over one stretch of a run.
type walLayer struct {
	tj                *timingJournal
	met               *obs.WALMetrics
	mut0              *histSnap
	batches0, bytes0  int64
	appends0          int64
	commits0          int64
	commitSum0        float64
	sealed0, publish0 *histSnap
}

func startWAL(tj *timingJournal, met *obs.WALMetrics) *walLayer {
	return &walLayer{
		tj: tj, met: met, mut0: tj.mut.snap(),
		batches0: met.Batches.Value(), bytes0: met.AppendedBytes.Value(), appends0: met.Appends.Value(),
		commits0: met.CommitSeconds.Count(), commitSum0: met.CommitSeconds.Sum(),
		sealed0: tj.sealed.snap(), publish0: tj.published.snap(),
	}
}

// appendStats returns the journal mutation calls' estimated summed
// time (sampled mean times the WAL's own append count) and the metrics
// of the append path per op since start.
func (l *walLayer) appendStats(ops int64, out map[string]metric) (sumNs float64) {
	mut := l.tj.mut.snap().minus(l.mut0)
	out["wal.append_ns_per_op"] = metric{mut.meanNs(), "ns"}
	out["wal.append_p999_us"] = metric{mut.quantileNs(0.999) / 1e3, "us"}
	out["wal.flushes_per_kop"] = metric{float64(l.met.Batches.Value()-l.batches0) * 1000 / float64(ops), "count"}
	out["wal.bytes_per_op"] = metric{float64(l.met.AppendedBytes.Value()-l.bytes0) / float64(ops), "B"}
	return mut.meanNs() * float64(l.met.Appends.Value()-l.appends0)
}

// sealStats reports the commit and seal-path costs since start.
func (l *walLayer) sealStats(out map[string]metric) {
	n := l.met.CommitSeconds.Count() - l.commits0
	out["wal.fsync_ms"] = metric{(l.met.CommitSeconds.Sum() - l.commitSum0) * 1e3 / float64(n), "ms"}
	out["wal.sealed_us"] = metric{l.tj.sealed.snap().minus(l.sealed0).meanNs() / 1e3, "us"}
	out["wal.publish_ms"] = metric{l.tj.published.snap().minus(l.publish0).meanNs() / 1e6, "ms"}
}

// inproc is the serving stack hosted in this process.
type inproc struct {
	reg      *registry.Registry
	w        *wal.Writer
	tj       *timingJournal
	ln       *timingListener // nil when untraced
	addr     string
	srv      *server.Server
	done     chan struct{} // closed when Serve returns
	serveErr error         // Serve's result, set before done closes
	ob       *obs.Observer
}

// startInproc hosts the stack as lbserve -listen would, with the timing
// journal and listener when traced and without them otherwise.
func startInproc(cfg *config, dir string, traced bool) (*inproc, error) {
	p := &inproc{ob: obs.New(0), done: make(chan struct{})}
	rcfg := registry.Config{Rate: serverRate, Metrics: p.ob.RegistryMetrics()}
	pol, err := wal.ParseSyncPolicy(cfg.w.walSync)
	if err != nil {
		return nil, err
	}
	if p.reg, p.w, _, err = wal.Open(dir, wal.Options{Sync: pol, SnapshotEvery: snapshotEvery, Metrics: p.ob.WALMetrics()}, rcfg); err != nil {
		return nil, err
	}
	if traced {
		p.tj = newTimingJournal(p.w)
		p.reg.AttachJournal(p.tj)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var ln net.Listener = raw
	if traced {
		p.ln = &timingListener{Listener: raw}
		ln = p.ln
	}
	p.addr = raw.Addr().String()
	p.srv = server.New(server.Config{Registry: p.reg, SealInterval: cfg.w.sealInterval, Metrics: p.ob.ServerMetrics()})
	go func() {
		p.serveErr = p.srv.Serve(ln)
		close(p.done)
	}()
	return p, nil
}

// kill stops the stack the way kill -9 would leave it.
func (p *inproc) kill() {
	p.srv.Kill()
	<-p.done
	p.w.Abandon()
}

// runTraced measures the untraced closed-loop rate against an lbserve
// child and against the untraced in-process stack, then runs every
// phase against the traced in-process stack and reports the per-layer
// metrics, reconciled with the end-to-end cost of a bid op.
func runTraced(cfg *config) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var tl tally
	defer func() { res.Attempted, res.Failed = tl.attempted, tl.failed }()

	untraced, err := childRate(cfg, &tl)
	if err != nil {
		return res, err
	}
	hosted, err := inprocRate(cfg, &tl)
	if err != nil {
		return res, err
	}

	dir, err := walDir(cfg, "trace")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	p, err := startInproc(cfg, dir, true)
	if err != nil {
		return res, err
	}
	d, err := dial(p.addr, cfg.maxID(), cfg.seed)
	if err != nil {
		p.kill()
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.close()
			p.kill()
		}
	}()
	if err := d.admit(cfg.w.agents); err != nil {
		return res, err
	}
	if _, err := d.seal(); err != nil {
		return res, err
	}

	// Closed loop: the bid path's layers, with request capture on.
	out := res.Metrics
	var wl *walLayer
	if p.tj != nil {
		wl = startWAL(p.tj, p.ob.WALMetrics())
	}
	a0, _, _ := d.counts()
	n0 := p.ln.totals()
	p.ln.capturing.Store(true)
	t0 := time.Now()
	rates, err := d.closedLoop(cfg.closedOps())
	wall := time.Since(t0)
	p.ln.capturing.Store(false)
	if err != nil {
		return res, err
	}
	traced := median(rates)
	a1, _, _ := d.counts()
	ops := a1 - a0
	nt := p.ln.totals().minus(n0)
	conns := float64(len(d.conns))
	journalNs := 0.0
	if wl != nil {
		journalNs = wl.appendStats(ops, out)
	}
	perOp := func(ns float64) float64 { return ns / float64(ops) }
	out["net.read_wait_frac"] = metric{float64(nt.readNs) / (conns * float64(wall)), "ratio"}
	out["net.write_ns_per_op"] = metric{perOp(float64(nt.writeNs)), "ns"}
	out["net.bytes_per_op"] = metric{perOp(float64(nt.readBytes + nt.writeBytes)), "B"}
	out["server.ops_per_wakeup"] = metric{float64(ops) / float64(nt.wakeups), "count"}
	selfNs := float64(nt.busyNs) - float64(nt.writeNs) - journalNs
	out["server.busy_ns_per_op"] = metric{perOp(selfNs), "ns"}
	out["server.busy_frac"] = metric{float64(nt.busyNs) / (conns * float64(wall)), "ratio"}

	// Open loop: the generator's own figures.
	open := &openResult{}
	if err := d.openLoop(cfg.openRate, cfg.phase(cfg.w.openShare), open); err != nil {
		return res, err
	}
	out["lbclient.gen_lag_p99_us"] = metric{durQuantiles(open.lag, 0.99)[0], "us"}
	out["lbclient.ops_per_flush"] = metric{float64(open.sent) / float64(open.flushes), "count"}

	// Epoch cycles, then direct seals and queries on the quiet registry.
	if err := d.epochs(cfg.epochs(), cfg.w.burst, cfg.w.leaves, cfg.w.joins, cfg.w.queries, &epochResult{}); err != nil {
		return res, err
	}
	rm := p.ob.RegistryMetrics()
	out["registry.coalesced_frac"] = metric{float64(rm.Coalesced.Value()) / float64(rm.Updates.Value()), "ratio"}
	tl.add(d)
	d.close()
	p.srv.Shutdown(5 * time.Second)
	if <-p.done; p.serveErr != nil {
		return res, p.serveErr
	}
	last := directSeals(p.reg, p.tj, out)
	out["registry.query_ns"] = metric{queryNs(p.reg, cfg.seed), "ns"}

	// Recovery from the log the run left, timed through wal.Open.
	wl.sealStats(out)
	if cfg.w.crash {
		p.w.Abandon()
	} else if err := p.w.Close(); err != nil {
		return res, err
	}
	if err := recoverLayer(cfg, dir, last, out); err != nil {
		return res, err
	}
	stopped = true

	// Replays of the captured request frames.
	bufs := p.ln.captured()
	reqs, err := decodeAll(bufs)
	if err != nil {
		return res, err
	}
	dec, enc := replayWire(bufs, reqs)
	out["wire.decode_ns_per_op"] = metric{dec, "ns"}
	out["wire.encode_ns_per_op"] = metric{enc, "ns"}
	batch := max(1, min(server.DefaultMaxBatch, int(math.Round(float64(ops)/float64(nt.wakeups)))))
	apply, err := replayRegistry(reqs, batch)
	if err != nil {
		return res, err
	}
	out["registry.apply_ns_per_op"] = metric{apply, "ns"}

	reconcile(reconciliation{
		untracedOpsPerS: untraced, hostedOpsPerS: hosted, tracedOpsPerS: traced,
		ops: float64(ops), conns: conns,
		readNs: float64(nt.readNs), writeNs: float64(nt.writeNs), journalNs: journalNs, selfNs: selfNs,
		wireNs: dec + enc, applyNs: apply,
	})
	res.Correct = tl.failed == 0
	return res, nil
}

// childRate runs set-up and the closed-loop phase against an lbserve
// child: the end-to-end rate the traced figures reconcile to.
func childRate(cfg *config, tl *tally) (float64, error) {
	dir, err := walDir(cfg, "ref")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ch, err := spawn(cfg.lbserve, serverArgs(cfg, dir))
	if err != nil {
		return 0, err
	}
	defer ch.kill()
	return closedRate(cfg, ch.addr, tl)
}

// inprocRate is childRate against the in-process stack without the
// timing wrappers: the baseline of the tracing overhead.
func inprocRate(cfg *config, tl *tally) (float64, error) {
	dir, err := walDir(cfg, "hosted")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	p, err := startInproc(cfg, dir, false)
	if err != nil {
		return 0, err
	}
	defer p.kill()
	return closedRate(cfg, p.addr, tl)
}

// closedRate admits the population at addr, seals, and returns the
// median rate of a closed loop half the length of the traced one,
// which keeps a traced run within its time budget.
func closedRate(cfg *config, addr string, tl *tally) (float64, error) {
	d, err := dial(addr, cfg.maxID(), cfg.seed)
	if err != nil {
		return 0, err
	}
	defer d.close()
	defer tl.add(d)
	if err := d.admit(cfg.w.agents); err != nil {
		return 0, err
	}
	if _, err := d.seal(); err != nil {
		return 0, err
	}
	rates, err := d.closedLoop(cfg.closedOps() / 2)
	if err != nil {
		return 0, err
	}
	return median(rates), nil
}

// directSeals seals the quiet registry five times and reports the
// registry's own seal time: each Seal span minus the journal calls it
// made. It returns the last sealed epoch.
func directSeals(reg *registry.Registry, tj *timingJournal, out map[string]metric) *registry.Snapshot {
	var self []float64
	var snap *registry.Snapshot
	for i := 0; i < 5; i++ {
		if tj != nil {
			tj.logging.Store(true)
		}
		t0 := time.Now()
		snap = reg.Seal()
		sp := span{t0, time.Now()}
		var children []span
		if tj != nil {
			tj.logging.Store(false)
			children = tj.takeLog()
		}
		self = append(self, float64(selfTime(sp, children))/1e6)
	}
	out["registry.seal_ms"] = metric{median(self), "ms"}
	return snap
}

// queryNs times Snapshot().Payment over pseudo-random live agents.
func queryNs(reg *registry.Registry, seed uint64) float64 {
	snap := reg.Snapshot()
	ids := snap.IDs()
	const n = 1 << 20
	x := seed | 1
	var sum float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c, b, _ := reg.Snapshot().Payment(ids[x%uint64(len(ids))])
		sum += c + b
	}
	el := time.Since(t0)
	sink = sum
	return float64(el) / n
}

// sink keeps the timed loops' results alive.
var sink float64

// recoverLayer times wal.Open on the run's log and checks the
// recovered epoch is the last one sealed.
func recoverLayer(cfg *config, dir string, last *registry.Snapshot, out map[string]metric) error {
	pol, err := wal.ParseSyncPolicy(cfg.w.walSync)
	if err != nil {
		return err
	}
	t0 := time.Now()
	reg, w, info, err := wal.Open(dir, wal.Options{Sync: pol, SnapshotEvery: snapshotEvery}, registry.Config{Rate: serverRate})
	el := time.Since(t0)
	if err != nil {
		return err
	}
	defer w.Close()
	got := reg.Snapshot()
	if a, b := sealLine(got.Epoch(), got.N(), got.Sum()), sealLine(last.Epoch(), last.N(), last.Sum()); a != b {
		return fmt.Errorf("servebench: in-process recovery found %s, last seal was %s", a, b)
	}
	// Each live agent is restored once, from the snapshot or from its
	// add record, and every other replayed record is applied once.
	out["wal.recover_ns_per_record"] = metric{float64(el) / float64(info.Records+got.N()), "ns"}
	return nil
}

// decodeAll decodes every whole captured request frame.
func decodeAll(bufs [][]byte) ([]wire.Request, error) {
	var reqs []wire.Request
	for _, b := range bufs {
		rd := wire.NewReader(server.DefaultReadBuf)
		src := bytes.NewReader(b)
		for {
			payload, err := rd.Next()
			if err != nil {
				return nil, err
			}
			if payload == nil {
				if n, _ := rd.Fill(src); n == 0 {
					break
				}
				continue
			}
			var q wire.Request
			if err := wire.DecodeRequest(payload, &q); err != nil {
				return nil, err
			}
			reqs = append(reqs, q)
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("servebench: no request frames captured")
	}
	return reqs, nil
}

// replayWire times the captured frames through wire.Reader and
// DecodeRequest, and their responses through AppendResponse, as the
// server's handler does; it returns the medians of five passes in ns
// per op.
func replayWire(bufs [][]byte, reqs []wire.Request) (decode, encode float64) {
	var decs, encs []float64
	wbuf := make([]byte, 0, server.DefaultWriteBuf+wire.MaxFrame)
	for pass := 0; pass < 5; pass++ {
		// A fresh window per connection, as each handler has its own.
		rds := make([]*wire.Reader, len(bufs))
		for i := range rds {
			rds[i] = wire.NewReader(server.DefaultReadBuf)
		}
		n := 0
		t0 := time.Now()
		for i, b := range bufs {
			rd := rds[i]
			src := bytes.NewReader(b)
			var q wire.Request
			for {
				payload, _ := rd.Next()
				if payload == nil {
					if k, _ := rd.Fill(src); k == 0 {
						break
					}
					continue
				}
				if wire.DecodeRequest(payload, &q) == nil {
					n++
				}
			}
		}
		decs = append(decs, float64(time.Since(t0))/float64(n))

		t0 = time.Now()
		for i := range reqs {
			p := wire.Response{Op: reqs[i].Op, Req: reqs[i].Req}
			wbuf, _ = wire.AppendResponse(wbuf, &p)
			if len(wbuf) >= server.DefaultWriteBuf {
				wbuf = wbuf[:0]
			}
		}
		encs = append(encs, float64(time.Since(t0))/float64(len(reqs)))
	}
	return median(decs), median(encs)
}

// batchOps converts captured requests into registry batch ops.
func batchOps(reqs []wire.Request) (ops []registry.BatchOp, maxID int) {
	for _, q := range reqs {
		var k registry.BatchKind
		switch q.Op {
		case wire.OpAdd:
			k = registry.BatchAdd
		case wire.OpRebid:
			k = registry.BatchRebid
		case wire.OpLeave:
			k = registry.BatchLeave
		default:
			continue
		}
		ops = append(ops, registry.BatchOp{Kind: k, ID: int(q.ID), T: q.T})
		maxID = max(maxID, int(q.ID))
	}
	return ops, maxID
}

// populate admits agents 0..n-1 so replayed rebids find their ids.
func populate(reg *registry.Registry, n int) {
	var sc registry.BatchScratch
	var res []registry.BatchResult
	ops := make([]registry.BatchOp, 0, server.DefaultMaxBatch)
	for i := 0; i < n; i++ {
		ops = append(ops, registry.BatchOp{Kind: registry.BatchAdd, T: 1 + float64(i%7)})
		if len(ops) == cap(ops) || i == n-1 {
			res = reg.ApplyBatch(ops, res[:0], &sc)
			ops = ops[:0]
		}
	}
}

// applyAll applies ops in batches of the given size and returns the
// elapsed time.
func applyAll(reg *registry.Registry, ops []registry.BatchOp, batch int) time.Duration {
	var sc registry.BatchScratch
	res := make([]registry.BatchResult, 0, batch)
	t0 := time.Now()
	for i := 0; i < len(ops); i += batch {
		res = reg.ApplyBatch(ops[i:min(i+batch, len(ops))], res[:0], &sc)
	}
	return time.Since(t0)
}

// replayRegistry times the captured bid ops through ApplyBatch on a
// journal-off registry holding every id they name, in batches of the
// size the server formed; the median of three passes, ns per op.
func replayRegistry(reqs []wire.Request, batch int) (float64, error) {
	ops, maxID := batchOps(reqs)
	if len(ops) == 0 {
		return 0, fmt.Errorf("servebench: no bid ops captured")
	}
	reg, err := registry.New(registry.Config{Rate: serverRate})
	if err != nil {
		return 0, err
	}
	populate(reg, maxID+1)
	var ns []float64
	for pass := 0; pass < 3; pass++ {
		ns = append(ns, float64(applyAll(reg, ops, batch))/float64(len(ops)))
	}
	return median(ns), nil
}

// reconciliation is the closed-loop phase's cost per bid op, split by
// layer.
type reconciliation struct {
	untracedOpsPerS, hostedOpsPerS, tracedOpsPerS float64
	ops, conns                                    float64
	readNs, writeNs, journalNs                    float64
	selfNs, wireNs, applyNs                       float64
}

// reconcile prints the per-layer table. Each server connection's wall
// time is the sum of its time in Read and its busy time, and busy time
// is Write + journal calls + the handler's own work, so over C
// connections the rows add up to C·wall/ops; divided by C they are the
// traced ns/op. What the rows leave of the untraced end-to-end ns/op
// (lbserve as a child process) is the residue. The tracing overhead
// compares the traced stack with the same stack hosted in-process
// without the timing wrappers, so hosting the server beside the load
// generator is not counted as tracing.
func reconcile(r reconciliation) {
	k := r.ops * r.conns
	rows := []struct {
		name string
		ns   float64
	}{
		{"net.read (wait + syscall)", r.readNs / k},
		{"net.write", r.writeNs / k},
		{"wal.append (journal calls)", r.journalNs / k},
		{"server self (busy - write - journal)", r.selfNs / k},
	}
	untraced := 1e9 / r.untracedOpsPerS
	fmt.Printf("per-layer reconciliation, closed-loop phase, ns per bid op (%g server connections):\n", r.conns)
	sum := 0.0
	for _, row := range rows {
		sum += row.ns
		fmt.Printf("  %-40s %10.2f\n", row.name, row.ns)
	}
	fmt.Printf("    of server self: wire decode+encode %.2f, registry ApplyBatch %.2f (replays; per connection %.2f, %.2f)\n",
		r.wireNs/r.conns, r.applyNs/r.conns, r.wireNs, r.applyNs)
	fmt.Printf("  %-40s %10.2f\n", "sum (traced ns/op)", sum)
	fmt.Printf("  %-40s %10.2f\n", "untraced ns/op (lbserve child)", untraced)
	fmt.Printf("  %-40s %10.2f (%.1f%%)\n", "residue (untraced - sum)", untraced-sum, 100*(untraced-sum)/untraced)
	pct := func(a, b float64) float64 { return 100 * (a - b) / b }
	fmt.Printf("tracing overhead: traced bid_ops_per_s %.0f - untraced in-process %.0f = %.0f (%.1f%%)\n",
		r.tracedOpsPerS, r.hostedOpsPerS, r.tracedOpsPerS-r.hostedOpsPerS, pct(r.tracedOpsPerS, r.hostedOpsPerS))
	fmt.Printf("hosting: untraced in-process %.0f - lbserve child %.0f = %.0f (%.1f%%)\n",
		r.hostedOpsPerS, r.untracedOpsPerS, r.hostedOpsPerS-r.untracedOpsPerS, pct(r.hostedOpsPerS, r.untracedOpsPerS))
}

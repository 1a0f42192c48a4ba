package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/lbclient"
	"repro/internal/wire"
)

const (
	// nConns is the number of client connections; the load generator
	// runs with GOMAXPROCS at most 2, one per connection.
	nConns = 2
	// window bounds the outstanding requests of a closed-loop
	// connection; requests go out in writes of at least flushEvery.
	window     = 4096
	flushEvery = 256
)

// pending is one request the client has sent and not yet seen
// answered, with what it needs to update the model on success.
type pending struct {
	op  byte
	id  int
	t   float64
	due time.Time // open loop: the scheduled arrival
}

// conn is one client connection and the agents it owns: the ids it
// admitted that it has not asked to leave.
type conn struct {
	c   *lbclient.Conn
	own []int
	rng *rand.Rand

	ring       []pending // closed-loop requests in flight, FIFO
	head, tail int

	attempted, answered, failed int64
}

// loadgen is the load generator: two connections, the agent model, and
// the running correctness verdict.
type loadgen struct {
	conns []*conn
	m     *model
	rng   *rand.Rand // epoch-phase choices: leavers, query targets
	last  lbclient.EpochInfo
}

func dial(addr string, maxID int, seed uint64) (*loadgen, error) {
	d := &loadgen{m: newModel(maxID), rng: rand.New(rand.NewPCG(seed, 0xe90c))}
	for i := 0; i < nConns; i++ {
		c, err := lbclient.Dial(addr, 0)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, &conn{
			c:    c,
			rng:  rand.New(rand.NewPCG(seed, uint64(i)+1)),
			ring: make([]pending, window),
		})
	}
	return d, nil
}

func (d *loadgen) close() {
	for _, k := range d.conns {
		k.c.Close()
	}
}

// counts sums the request tallies of both connections.
func (d *loadgen) counts() (attempted, answered, failed int64) {
	for _, k := range d.conns {
		attempted += k.attempted
		answered += k.answered
		failed += k.failed
	}
	return
}

// each runs f once per connection concurrently and returns the first
// error.
func (d *loadgen) each(f func(i int, k *conn) error) error {
	errs := make([]error, len(d.conns))
	var wg sync.WaitGroup
	for i, k := range d.conns {
		wg.Add(1)
		go func(i int, k *conn) {
			defer wg.Done()
			errs[i] = f(i, k)
		}(i, k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// bid draws a fresh bid.
func (k *conn) bid() float64 { return 0.1 + 10*k.rng.Float64() }

// rebid picks one of the connection's agents and a new bid for it.
func (k *conn) rebid() pending {
	return pending{op: wire.OpRebid, id: k.own[k.rng.IntN(len(k.own))], t: k.bid()}
}

// send queues p on the wire (without flushing).
func (k *conn) send(p pending) {
	switch p.op {
	case wire.OpAdd:
		k.c.QueueAdd(p.t)
	case wire.OpRebid:
		k.c.QueueRebid(p.id, p.t)
	case wire.OpLeave:
		k.c.QueueLeave(p.id)
	}
	k.attempted++
}

// answer applies a bid-op response to the model.
func (k *conn) answer(m *model, p *pending, r *wire.Response) error {
	k.answered++
	if r.Status != wire.StatusOK {
		k.failed++
		return nil
	}
	switch p.op {
	case wire.OpAdd:
		k.own = append(k.own, int(r.ID))
		return m.set(int(r.ID), p.t)
	case wire.OpRebid:
		return m.set(p.id, p.t)
	case wire.OpLeave:
		m.clear(p.id)
	}
	return nil
}

// pipeline keeps up to window requests in flight: it sends n requests
// drawn from gen, refilling in writes of at least flushEvery, and
// applies every response to the model in order. With every > 0 it
// returns the time at which each every-th response arrived.
func (k *conn) pipeline(m *model, n int, gen func() pending, every int) ([]time.Time, error) {
	var marks []time.Time
	sent, recvd := 0, 0
	for recvd < n {
		if sent < n && sent-recvd <= window-flushEvery {
			budget := min(window-(sent-recvd), n-sent)
			for j := 0; j < budget; j++ {
				p := gen()
				k.send(p)
				k.ring[k.tail] = p
				k.tail = (k.tail + 1) % len(k.ring)
				sent++
			}
			if err := k.c.Flush(); err != nil {
				return marks, err
			}
		}
		r, err := k.c.Recv()
		if err != nil {
			return marks, err
		}
		p := &k.ring[k.head]
		k.head = (k.head + 1) % len(k.ring)
		recvd++
		if err := k.answer(m, p, r); err != nil {
			return marks, err
		}
		if every > 0 && recvd%every == 0 {
			marks = append(marks, time.Now())
		}
	}
	return marks, nil
}

// admit adds agents over both connections, half each.
func (d *loadgen) admit(agents int) error {
	return d.each(func(i int, k *conn) error {
		n := agents / nConns
		if i == 0 {
			n += agents % nConns
		}
		_, err := k.pipeline(d.m, n, func() pending { return pending{op: wire.OpAdd, t: k.bid()} }, 0)
		return err
	})
}

// seal seals an epoch on connection 0 and checks it against the model.
func (d *loadgen) seal() (time.Duration, error) {
	k := d.conns[0]
	k.attempted++
	t0 := time.Now()
	info, err := k.c.Seal()
	el := time.Since(t0)
	if err != nil {
		return 0, err
	}
	k.answered++
	if info.Epoch <= d.last.Epoch {
		return el, fmt.Errorf("servebench: seal acked epoch %d after epoch %d", info.Epoch, d.last.Epoch)
	}
	d.last = info
	return el, d.m.checkSeal(info)
}

// closedLoop sends n rebids as fast as the server answers, half on
// each connection, and returns the delivered rate over each of five
// equal slices of them. The op count, not a deadline, ends the phase,
// so a run writes the same log whatever the host's speed.
func (d *loadgen) closedLoop(n int) ([]float64, error) {
	const nSlices = 5
	per := n / len(d.conns) / nSlices
	marks := make([][]time.Time, len(d.conns))
	start := time.Now()
	err := d.each(func(i int, k *conn) error {
		var err error
		marks[i], err = k.pipeline(d.m, per*nSlices, k.rebid, per)
		return err
	})
	if err != nil {
		return nil, err
	}
	rates := make([]float64, nSlices)
	for _, ms := range marks {
		prev := start
		for s, t := range ms {
			rates[s] += float64(per) / t.Sub(prev).Seconds()
			prev = t
		}
	}
	return rates, nil
}

// openResult is what the open-loop phase measured.
type openResult struct {
	lat     []int64 // per request: answer time minus scheduled arrival, ns
	lag     []int64 // per generator wakeup: wake time minus the oldest due arrival, ns
	sent    int64
	flushes int64
}

// openLoop offers rebids as a Poisson stream of rate ops/s, split
// evenly over the connections, for dur. Each connection's sender
// wakes when the next arrival is due, sends every arrival due by then
// in one write, and records how late it ran; a separate receiver
// times each answer from the request's scheduled arrival, so a stall
// is charged to every request that queued behind it. The figures are
// added to out.
func (d *loadgen) openLoop(rate float64, dur time.Duration, out *openResult) error {
	start := time.Now()
	end := start.Add(dur)
	res := make([]openResult, len(d.conns))
	err := d.each(func(i int, k *conn) error {
		return k.openLoop(d.m, rate/float64(len(d.conns)), start, end, &res[i])
	})
	for _, r := range res {
		out.lat = append(out.lat, r.lat...)
		out.lag = append(out.lag, r.lag...)
		out.sent += r.sent
		out.flushes += r.flushes
	}
	return err
}

func (k *conn) openLoop(m *model, rate float64, start, end time.Time, res *openResult) error {
	// The channel carries every request in flight from sender to
	// receiver; its capacity is what a stalled server may owe one
	// connection (a quarter second of offered load) before the sender
	// blocks.
	inflight := make(chan pending, int(rate/4)+flushEvery)
	expect := int(rate * end.Sub(start).Seconds() * 1.1)
	res.lat = make([]int64, 0, expect)
	var sendErr error
	go func() {
		defer close(inflight)
		sendErr = k.sendPoisson(rate, start, end, inflight, res)
	}()
	var recvErr error
	for p := range inflight {
		if recvErr != nil {
			continue // drain so the sender can finish
		}
		r, err := k.c.Recv()
		if err != nil {
			recvErr = err
			continue
		}
		res.lat = append(res.lat, time.Since(p.due).Nanoseconds())
		recvErr = k.answer(m, &p, r)
	}
	return errors.Join(sendErr, recvErr)
}

// sendPoisson is the open-loop sender: it sleeps until the next
// arrival is due, then sends every due arrival in one write.
func (k *conn) sendPoisson(rate float64, start, end time.Time, inflight chan<- pending, res *openResult) error {
	tm, err := newPreciseTimer()
	if err != nil {
		return err
	}
	defer tm.close()
	gap := func() time.Duration { return time.Duration(k.rng.ExpFloat64() / rate * 1e9) }
	due := start.Add(gap())
	for due.Before(end) {
		if wait := time.Until(due); wait > 0 {
			if err := tm.sleep(wait); err != nil {
				return err
			}
			continue
		}
		now := time.Now()
		first := due
		for !due.After(now) && due.Before(end) {
			p := k.rebid()
			p.due = due
			if len(inflight) == cap(inflight) {
				// The receiver can only drain what has been written.
				if err := k.c.Flush(); err != nil {
					return err
				}
			}
			k.send(p)
			inflight <- p
			res.sent++
			due = due.Add(gap())
		}
		if err := k.c.Flush(); err != nil {
			return err
		}
		res.lag = append(res.lag, now.Sub(first).Nanoseconds())
		res.flushes++
	}
	return nil
}

// epochResult is what the epoch phase measured.
type epochResult struct {
	seal, query []int64 // ns per seal / per query
}

// epochs runs n epochs of the protocol's cycle: a pipelined rebid
// burst, then leaves and joins, then one sealed epoch checked bit for
// bit against the model, then one-at-a-time payment and load queries
// checked against the sealed aggregates. The timings are added to res.
func (d *loadgen) epochs(n, burst, leaves, joins, queries int, res *epochResult) error {
	for e := 0; e < n; e++ {
		err := d.each(func(i int, k *conn) error {
			if _, err := k.pipeline(d.m, burst/nConns, k.rebid, 0); err != nil {
				return err
			}
			left := 0
			_, err := k.pipeline(d.m, (leaves+joins)/nConns, func() pending {
				if left < leaves/nConns && len(k.own) > 1 {
					left++
					j := k.rng.IntN(len(k.own))
					id := k.own[j]
					k.own[j] = k.own[len(k.own)-1]
					k.own = k.own[:len(k.own)-1]
					return pending{op: wire.OpLeave, id: id}
				}
				return pending{op: wire.OpAdd, t: k.bid()}
			}, 0)
			return err
		})
		if err != nil {
			return err
		}
		el, err := d.seal()
		if err != nil {
			return err
		}
		res.seal = append(res.seal, el.Nanoseconds())
		if err := d.query(queries, res); err != nil {
			return err
		}
	}
	return nil
}

// query runs one-at-a-time payment and load reads on connection 0,
// alternating, each against a random live agent.
func (d *loadgen) query(n int, res *epochResult) error {
	k := d.conns[0]
	for q := 0; q < n; q++ {
		owner := d.conns[d.rng.IntN(len(d.conns))]
		id := owner.own[d.rng.IntN(len(owner.own))]
		t := d.m.t[id]
		k.attempted++
		t0 := time.Now()
		var err error
		if q%2 == 0 {
			var comp, bonus float64
			if comp, bonus, err = k.c.Payment(id); err == nil {
				res.query = append(res.query, time.Since(t0).Nanoseconds())
				err = checkPayment(t, d.last, comp, bonus)
			}
		} else {
			var x float64
			if x, _, err = k.c.Load(id); err == nil {
				res.query = append(res.query, time.Since(t0).Nanoseconds())
				err = checkLoad(t, d.last, x)
			}
		}
		var se *wire.StatusError
		if errors.As(err, &se) {
			k.answered++
			k.failed++
			continue
		}
		if err != nil {
			return err
		}
		k.answered++
	}
	return nil
}

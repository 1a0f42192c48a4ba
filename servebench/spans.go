package main

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/wal"
)

// span is one timed call into a layer.
type span struct {
	start, end time.Time
}

// selfTime is a parent span's duration minus the part of it that its
// child spans cover: children are clipped to the parent and
// overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	var cs []span
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b span) int { return a.start.Compare(b.start) })
	covered := time.Duration(0)
	var cur span
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// sampleMask selects the mutation journal calls the timing journal
// times: those whose agent id is a multiple of 16. Timing every call
// would add two clock reads and two contended atomic adds under the
// registry's shard locks to every op; rebid ids are uniform, so the
// sample's distribution is the calls'.
const sampleMask = 15

// timingJournal is the registry.Journal the traced run attaches in
// place of the WAL writer: it forwards every call to the writer and
// times it (mutations on the id sample). Mutation calls run under
// registry shard locks on many goroutines, so they go to a lock-free
// histogram; seal-path calls are rare and also keep their spans while
// logging is on.
type timingJournal struct {
	w                      *wal.Writer
	clock                  time.Duration // cost of one clock read, taken off each sample
	mut, sealed, published atomicHist

	logging atomic.Bool
	mu      sync.Mutex
	log     []span
}

func newTimingJournal(w *wal.Writer) *timingJournal {
	return &timingJournal{w: w, clock: clockCost()}
}

// clockCost is the median time between two back-to-back clock reads.
func clockCost() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func (j *timingJournal) Added(id int, t float64) {
	if id&sampleMask != 0 {
		j.w.Added(id, t)
		return
	}
	t0 := time.Now()
	j.w.Added(id, t)
	j.mut.observe(time.Since(t0) - j.clock)
}

func (j *timingJournal) Updated(id int, t float64) {
	if id&sampleMask != 0 {
		j.w.Updated(id, t)
		return
	}
	t0 := time.Now()
	j.w.Updated(id, t)
	j.mut.observe(time.Since(t0) - j.clock)
}

func (j *timingJournal) Removed(id int) {
	if id&sampleMask != 0 {
		j.w.Removed(id)
		return
	}
	t0 := time.Now()
	j.w.Removed(id)
	j.mut.observe(time.Since(t0) - j.clock)
}

func (j *timingJournal) RateChanged(rate float64) { j.w.RateChanged(rate) }

func (j *timingJournal) Sealed(ev registry.SealEvent) {
	t0 := time.Now()
	j.w.Sealed(ev)
	j.record(&j.sealed, t0)
}

func (j *timingJournal) Published(snap *registry.Snapshot) {
	t0 := time.Now()
	j.w.Published(snap)
	j.record(&j.published, t0)
}

func (j *timingJournal) record(h *atomicHist, t0 time.Time) {
	t1 := time.Now()
	h.observe(t1.Sub(t0))
	if j.logging.Load() {
		j.mu.Lock()
		j.log = append(j.log, span{t0, t1})
		j.mu.Unlock()
	}
}

// takeLog returns and clears the logged seal-path spans.
func (j *timingJournal) takeLog() []span {
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.log
	j.log = nil
	return l
}

// connStats accumulates one server connection's time in the network
// layer. The handler goroutine writes them; the benchmark reads them
// at phase boundaries.
type connStats struct {
	readNs, readBytes   atomic.Int64
	writeNs, writeBytes atomic.Int64
	busyNs, wakeups     atomic.Int64

	capMu   sync.Mutex
	capture []byte // request bytes read while capturing
}

// netTotals is a sum of connStats at one moment.
type netTotals struct {
	readNs, readBytes, writeNs, writeBytes, busyNs, wakeups int64
}

func (a netTotals) minus(b netTotals) netTotals {
	return netTotals{a.readNs - b.readNs, a.readBytes - b.readBytes, a.writeNs - b.writeNs,
		a.writeBytes - b.writeBytes, a.busyNs - b.busyNs, a.wakeups - b.wakeups}
}

// timingListener hands the server timingConns, so the server's own
// reads and writes are the network layer's spans.
type timingListener struct {
	net.Listener
	capturing atomic.Bool

	mu    sync.Mutex
	conns []*connStats
}

func (l *timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	st := &connStats{capture: make([]byte, 0, captureCap)}
	l.mu.Lock()
	l.conns = append(l.conns, st)
	l.mu.Unlock()
	return &timingConn{Conn: c, st: st, l: l}, nil
}

func (l *timingListener) totals() netTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	var t netTotals
	for _, s := range l.conns {
		t.readNs += s.readNs.Load()
		t.readBytes += s.readBytes.Load()
		t.writeNs += s.writeNs.Load()
		t.writeBytes += s.writeBytes.Load()
		t.busyNs += s.busyNs.Load()
		t.wakeups += s.wakeups.Load()
	}
	return t
}

// captured returns each connection's captured request bytes. Call it
// only after capturing has stopped.
func (l *timingListener) captured() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]byte
	for _, s := range l.conns {
		s.capMu.Lock()
		if len(s.capture) > 0 {
			out = append(out, s.capture)
		}
		s.capMu.Unlock()
	}
	return out
}

// timingConn times the server's Read and Write calls; the time between
// one Read's return and the next Read's call is the handler's busy
// time (decode, registry admission, journal, encode, and the Write).
type timingConn struct {
	net.Conn
	st      *connStats
	l       *timingListener
	lastEnd time.Time
}

func (c *timingConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	if !c.lastEnd.IsZero() {
		c.st.busyNs.Add(int64(t0.Sub(c.lastEnd)))
	}
	n, err := c.Conn.Read(b)
	t1 := time.Now()
	c.lastEnd = t1
	c.st.readNs.Add(int64(t1.Sub(t0)))
	if n > 0 {
		c.st.readBytes.Add(int64(n))
		c.st.wakeups.Add(1)
		if c.l.capturing.Load() {
			c.st.capMu.Lock()
			room := cap(c.st.capture) - len(c.st.capture)
			c.st.capture = append(c.st.capture, b[:min(n, room)]...)
			c.st.capMu.Unlock()
		}
	}
	return n, err
}

func (c *timingConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.st.writeNs.Add(int64(time.Since(t0)))
	c.st.writeBytes.Add(int64(n))
	return n, err
}

package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/lbclient"
)

// tally accumulates request counts across every load generator of a run.
type tally struct{ attempted, failed int64 }

func (t *tally) add(d *loadgen) {
	a, ans, f := d.counts()
	t.attempted += a
	t.failed += f + (a - ans) // unanswered requests count as failed
}

// runServe is the untraced run against an lbserve child process: it
// measures every end-to-end metric.
func runServe(cfg *config) (*result, error) {
	res := &result{Metrics: map[string]metric{}, Ungated: map[string]metric{}}
	var tl tally
	defer func() { res.Attempted, res.Failed = tl.attempted, tl.failed }()

	// Set-up, timed several times: spawn, admit the population, seal
	// the first epoch. The last set-up's server is the one measured.
	var setups []float64
	var ch *child
	var d *loadgen
	var dir string
	defer func() {
		if d != nil {
			d.close()
		}
		if ch != nil {
			ch.kill()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if ch != nil {
			tl.add(d)
			d.close()
			ch.kill()
			os.RemoveAll(dir)
			ch, d, dir = nil, nil, ""
		}
		var err error
		if dir, err = walDir(cfg, "run"); err != nil {
			return res, err
		}
		t0 := time.Now()
		if ch, err = spawn(cfg.lbserve, serverArgs(cfg, dir)); err != nil {
			return res, err
		}
		if d, err = dial(ch.addr, cfg.maxID(), cfg.seed); err != nil {
			return res, err
		}
		if err := d.admit(cfg.w.agents); err != nil {
			return res, err
		}
		if _, err := d.seal(); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}

	cpu0, err := ch.cpuTime()
	if err != nil {
		return res, err
	}
	a0, _, _ := d.counts()
	m, err := measure(cfg, d)
	if err != nil {
		return res, err
	}
	for k, v := range m {
		res.Metrics[k] = v
	}
	cpu1, err := ch.cpuTime()
	if err != nil {
		return res, err
	}
	a1, _, _ := d.counts()
	rss, err := ch.peakRSS()
	if err != nil {
		return res, err
	}
	res.Metrics["server_cpu_us_per_op"] = metric{float64((cpu1 - cpu0).Microseconds()) / float64(a1-a0), "us"}
	res.Metrics["server_peak_rss_mb"] = metric{float64(rss) / (1 << 20), "MB"}
	if cfg.w.sealInterval == 0 {
		// Seal empty epochs until the last one closes a snapshot
		// cadence (a fresh log snapshots every snapshotEvery-th epoch),
		// so every run's kill -9 comes after the same snapshot.
		for d.last.Epoch%snapshotEvery != 0 {
			if _, err := d.seal(); err != nil {
				return res, err
			}
		}
	}
	tl.add(d)
	d.close()
	last := d.last
	d = nil

	rec, err := restart(cfg, ch, dir, last)
	ch = nil
	if err != nil {
		return res, err
	}
	res.Metrics["recover_s"] = metric{rec, "s"}
	for _, n := range ungated {
		res.Ungated[n] = res.Metrics[n]
		delete(res.Metrics, n)
	}
	res.Correct = tl.failed == 0
	return res, nil
}

// rounds is how many times a run interleaves its closed-loop,
// open-loop and epoch phases. The host's speed drifts by tens of
// percent over seconds; interleaving lets every metric sample the
// whole run instead of one stretch of it.
const rounds = 20

// measure runs the closed-loop, open-loop and epoch phases on a
// populated server, interleaved in rounds, and returns their metrics.
// Throughput is the median over every round's slices. The open-loop and
// query percentiles are taken per round and the median over the rounds
// is reported: a burst of host contention a few seconds long then moves
// one or two rounds, not the run's figure (pooled, such a burst held
// query_p99_us and doubled its spread between runs). Seal percentiles
// are pooled, as a round holds too few seals for a p90 of its own.
func measure(cfg *config, d *loadgen) (map[string]metric, error) {
	var rates, b50, b99, q50, q99 []float64
	open := &openResult{}
	ep := &epochResult{}
	total := cfg.epochs()
	for r := 0; r < rounds; r++ {
		rs, err := d.closedLoop(cfg.closedOps() / rounds)
		if err != nil {
			return nil, err
		}
		rates = append(rates, rs...)
		l0 := len(open.lat)
		if err := d.openLoop(cfg.openRate, cfg.phase(cfg.w.openShare)/rounds, open); err != nil {
			return nil, err
		}
		x := durQuantiles(open.lat[l0:], 0.5, 0.99)
		b50, b99 = append(b50, x[0]), append(b99, x[1])
		q0 := len(ep.query)
		if err := d.epochs(total*(r+1)/rounds-total*r/rounds, cfg.w.burst, cfg.w.leaves, cfg.w.joins, cfg.w.queries, ep); err != nil {
			return nil, err
		}
		x = durQuantiles(ep.query[q0:], 0.5, 0.99)
		q50, q99 = append(q50, x[0]), append(q99, x[1])
	}
	out := map[string]metric{
		"bid_ops_per_s": {median(rates), "1/s"},
		"bid_p50_us":    {median(b50), "us"},
		"bid_p99_us":    {median(b99), "us"},
		"query_p50_us":  {median(q50), "us"},
		"query_p99_us":  {median(q99), "us"},
	}
	lag := durQuantiles(open.lag, 0.5, 0.99)
	fmt.Printf("open loop: %d requests in %d writes (%.2f per write), generator lag p50 %.1fus p99 %.1fus\n",
		open.sent, open.flushes, float64(open.sent)/float64(open.flushes), lag[0], lag[1])
	// A generator that runs late measures itself, not the server.
	if p50 := out["bid_p50_us"].Value; lag[0] > p50/4 {
		return nil, fmt.Errorf("generator lag p50 %.1fus is not far below bid p50 %.1fus", lag[0], p50)
	}
	s := durQuantiles(ep.seal, 0.5, 0.9)
	out["seal_p50_us"] = metric{s[0], "us"}
	out["seal_p90_us"] = metric{s[1], "us"}
	fmt.Printf("epochs: %d sealed (last %s), %d queries\n", len(ep.seal), sealLine(d.last.Epoch, d.last.N, d.last.Sum), len(ep.query))
	return out, nil
}

// restart stops the measured server — kill -9, or SIGTERM with its
// drain-and-commit — and restarts it on the same WAL directory
// cfg.w.restarts times, checking each recovered epoch against the last
// acknowledged seal. It returns the median time from spawn to
// "serving on". Each restarted server is killed with kill -9: a
// SIGTERM right after "serving on" could arrive before lbserve
// installs its handler, and the recovered state is already checked.
func restart(cfg *config, ch *child, dir string, last lbclient.EpochInfo) (float64, error) {
	if cfg.w.sealInterval > 0 {
		// Idle through more than two snapshot cadences of background
		// seals, so the newest snapshot holds the final population and
		// every run's recovery replays the same short tail instead of
		// whatever the cadence left behind.
		time.Sleep(time.Duration(5*snapshotEvery/2) * cfg.w.sealInterval)
	} else {
		// The last client seal closed a snapshot cadence. Wait for
		// the compactor to make that snapshot durable, so every run's
		// recovery loads it and replays the same empty tail, not
		// whatever a kill mid-compaction left. The name is the WAL's
		// snapshot file name for that epoch.
		if err := waitFile(filepath.Join(dir, fmt.Sprintf("snap-%020d.snap", last.Epoch)), 10*time.Second); err != nil {
			fmt.Println("restart: snapshot of the last seal not written:", err)
		}
	}
	if err := stop(cfg, ch); err != nil {
		return 0, err
	}
	out := dir + ".recovered"
	defer os.Remove(out)
	var times []float64
	for r := 0; r < cfg.w.restarts; r++ {
		c, err := spawn(cfg.lbserve, append(serverArgs(cfg, dir), "-recovered-out", out))
		if err != nil {
			return 0, err
		}
		times = append(times, c.ready.Seconds())
		line, err := os.ReadFile(out)
		if err == nil {
			err = checkRecovered(cfg, last, strings.TrimSpace(string(line)))
		}
		c.kill()
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// waitFile polls until path exists or the timeout passes.
func waitFile(path string, timeout time.Duration) error {
	for end := time.Now().Add(timeout); ; time.Sleep(2 * time.Millisecond) {
		_, err := os.Stat(path)
		if err == nil || !errors.Is(err, os.ErrNotExist) || time.Now().After(end) {
			return err
		}
	}
}

// checkRecovered compares the epoch a restarted server recovered with
// the last seal the client saw acknowledged. After kill -9 under
// -wal-sync seal that seal is durable and must come back exactly.
// After a drain the log is complete, but background seals may have
// added epochs with the same population, so only n and S must match.
func checkRecovered(cfg *config, last lbclient.EpochInfo, line string) error {
	var epoch uint64
	var n int
	var bits uint64
	if _, err := fmt.Sscanf(line, "epoch=%d n=%d s=0x%x", &epoch, &n, &bits); err != nil {
		return fmt.Errorf("servebench: unreadable recovered line %q: %w", line, err)
	}
	want := sealLine(last.Epoch, last.N, last.Sum)
	switch {
	case cfg.w.crash:
		if line == want {
			return nil
		}
	case epoch >= last.Epoch && n == last.N && bits == math.Float64bits(last.Sum):
		return nil
	}
	return fmt.Errorf("servebench: restart recovered %q, last acknowledged seal was %q", line, want)
}

// stop ends a server the workload's way: kill -9, or SIGTERM after
// which the server must report its log committed.
func stop(cfg *config, c *child) error {
	if cfg.w.crash {
		c.kill()
		return nil
	}
	if err := c.term(); err != nil {
		return err
	}
	if !strings.Contains(c.output(), "write-ahead log committed") {
		return errors.New("servebench: lbserve drained without committing its write-ahead log")
	}
	return nil
}

// fsType names the filesystem holding path, for the run record.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

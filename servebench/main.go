// Command servebench is the repository's end-to-end serving benchmark.
// It drives lbserve -listen from outside, the way a client sees it:
// the server runs as a child process built from the same checkout,
// and one load-generator process (at most two connections, GOMAXPROCS
// at most 2) speaks the internal/wire protocol to it through
// internal/lbclient. Every run checks the server's answers against a
// client-side model of the agents' bids, bit for bit.
//
// Usage, from the repository root (run.sh builds lbserve and this
// command first):
//
//	bash servebench/run.sh -open-rate 50000 --workload rebid-durable --seed 1 --seconds 35 --trace 0
//
// With --trace 1 the run instead hosts the same serving components in
// this process, wraps the public call into each layer with a timer,
// and prints the per-layer metrics and their reconciliation with the
// end-to-end cost per op (see trace.go).
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix. Every workload runs the same phases —
// set-up, closed-loop rebids, open-loop rebids, epoch cycles, restart —
// so every end-to-end metric is measured on each; the workloads differ
// in population, durability and how much of the run each phase gets.
type workload struct {
	name   string
	agents int
	// walSync is lbserve's -wal-sync policy.
	walSync string
	// sealInterval is lbserve's -seal-interval (0: client seals only).
	sealInterval time.Duration
	// crash restarts after kill -9; otherwise after SIGTERM, whose
	// drain commits the log.
	crash bool
	// closedShare and openShare are the parts of --seconds the
	// closed-loop and open-loop phases run. The closed loop is sized
	// in ops, closedShare·seconds·closedRate, closedRate being about
	// what this workload delivers on a 2-vCPU host.
	closedShare, openShare, closedRate float64
	// epochsPerSecond times --seconds is the fixed epoch count.
	epochsPerSecond float64
	// Per epoch: rebid burst, leaves and joins (split over the
	// connections) and one-at-a-time queries.
	burst, leaves, joins, queries int
	// restarts is how many times recovery is timed in one run (the
	// median is reported).
	restarts int
}

var workloads = []workload{
	{
		name: "rebid-durable", agents: 8192, walSync: "batch", sealInterval: 20 * time.Millisecond,
		closedShare: 0.35, openShare: 0.45, closedRate: 3.5e6, epochsPerSecond: 20,
		burst: 4096, leaves: 16, joins: 16, queries: 64, restarts: 21,
	},
	// epoch-settle admits 256k agents (~7.5 MB of shard state, beyond a
	// 2 MB per-core L2), not 1M: on a shared 2-vCPU Xeon VM whose memory
	// bandwidth halved when neighbours were busy, 1M agents moved the
	// seal and rebid figures by 20-40% between runs of one build; 256k
	// kept seal_p50_us within 6%.
	{
		name: "epoch-settle", agents: 1 << 18, walSync: "seal", crash: true,
		closedShare: 0.15, openShare: 0.2, closedRate: 2e6, epochsPerSecond: 16,
		burst: 16384, leaves: 128, joins: 128, queries: 256, restarts: 9,
	},
}

// setupRepeats is how many times set-up is timed in one run (the
// median is reported).
const setupRepeats = 9

// snapshotEvery is lbserve's default -snapshot-every, passed
// explicitly so the benchmark pins it.
const snapshotEvery = 8

type config struct {
	w        workload
	seed     uint64
	seconds  float64
	openRate float64
	lbserve  string
	workdir  string
}

// closedOps is the closed-loop phase's fixed op count.
func (c *config) closedOps() int {
	return int(c.w.closedShare * c.seconds * c.w.closedRate)
}

func (c *config) epochs() int {
	return max(8, int(math.Round(c.w.epochsPerSecond*c.seconds)))
}

// maxID bounds the ids one server can assign in a run: the population
// plus every join.
func (c *config) maxID() int { return c.w.agents + c.epochs()*c.w.joins + 1 }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Ungated holds figures printed by name but left out of the JSON
	// line (see ungated).
	Ungated map[string]metric `json:"-"`
}

// ungated names the figures a run measures and prints but does not
// report in its JSON line, so BENCHMARK.json sets them no bound. Over
// sets of ten runs of one build on a shared 2-vCPU host, whose speed
// drifted by 20-50% over minutes, the bid path's wall-clock figures
// spread by 0.11 to 0.38 of their median and the tails by 0.3 to 0.9
// (fsync stalls, vCPU preemption): beyond the largest bound the
// benchmark may set.
var ungated = []string{"bid_ops_per_s", "bid_p50_us", "bid_p99_us", "query_p99_us", "seal_p90_us"}

func main() {
	name := flag.String("workload", "", "workload: rebid-durable or epoch-settle")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: in-process traced run printing per-layer metrics")
	openRate := flag.Float64("open-rate", 0, "offered rate of the open-loop phase, ops/s (required)")
	lbserve := flag.String("lbserve", "", "lbserve binary built from this checkout (required)")
	workdir := flag.String("workdir", "", "directory for build outputs and WAL directories (required)")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, openRate: *openRate, lbserve: *lbserve, workdir: *workdir}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.w, found = w, true
		}
	}
	switch {
	case !found:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *openRate <= 0 || *seconds <= 0:
		fail(errors.New("need -open-rate > 0 and -seconds > 0"))
	case *workdir == "" || *lbserve == "":
		fail(errors.New("need -workdir and -lbserve"))
	case *trace != 0 && *trace != 1:
		fail(errors.New("-trace takes 0 or 1"))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	printRecord(&cfg)
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(&cfg)
	} else {
		res, err = runServe(&cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
	if res != nil {
		printResult(res)
	}
	if err != nil || res == nil || !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(2)
}

// printResult prints every metric by name and unit, then the JSON
// line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("%-28s %14.6g ratio (%d of %d requests)\n", "fail_frac", frac, res.Failed, res.Attempted)
	for _, n := range ungated {
		if m, ok := res.Ungated[n]; ok {
			fmt.Printf("%-28s %14.6g %s (no bound: spreads past 0.25 between runs)\n", n, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// printRecord prints the run record: the host and the durability
// settings the figures were taken under.
func printRecord(cfg *config) {
	fmt.Printf("run: workload=%s seed=%d seconds=%g open-rate=%g\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.openRate)
	fmt.Printf("host: nproc=%d cpu=%q go=%s wal-fs=%s\n", runtime.NumCPU(), cpuModel(), runtime.Version(), fsType(cfg.workdir))
	fmt.Printf("server: agents=%d wal-sync=%s snapshot-every=%d seal-interval=%s restart-after=%s\n",
		cfg.w.agents, cfg.w.walSync, snapshotEvery, cfg.w.sealInterval, map[bool]string{true: "kill -9", false: "SIGTERM"}[cfg.w.crash])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// walDir returns a fresh, empty WAL directory under the work directory.
func walDir(cfg *config, tag string) (string, error) {
	dir := filepath.Join(cfg.workdir, "wal", fmt.Sprintf("%s-%d-%s", cfg.w.name, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// serverArgs is the lbserve command line for the workload (besides
// -listen, which spawn adds).
func serverArgs(cfg *config, dir string) []string {
	args := []string{"-wal-dir", dir, "-wal-sync", cfg.w.walSync, "-snapshot-every", strconv.Itoa(snapshotEvery)}
	if cfg.w.sealInterval > 0 {
		args = append(args, "-seal-interval", cfg.w.sealInterval.String())
	}
	return args
}

// phase converts a share of --seconds to a duration.
func (c *config) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// Command lbserve serves the concurrent bid registry. It has three
// modes and prints usage (exit 2) when given none.
//
// With -listen the command is the networked serving front end: a
// framed TCP server (internal/server) accepting pipelined clients
// (internal/lbclient, cmd/lbload) until SIGINT/SIGTERM, optionally
// journaling into a WAL so a killed server restarts from its last
// sealed epoch bit-for-bit:
//
//	lbserve -listen 127.0.0.1:9070
//	lbserve -listen 127.0.0.1:9070 -wal-dir /tmp/lbwal -wal-sync seal
//	lbserve -listen 127.0.0.1:9070 -seal-interval 100ms -metrics
//
// With -health the command runs the self-healing chaos demo: a small
// population under a deterministic fault plan, the internal/health
// control loop verifying every tick, and the degrade → eject → probe →
// slow-start story printed live:
//
//	lbserve -health
//	lbserve -health -plan crash=1,flap=5@6:0.5 -ticks 80 -fault-until 45
//
// With -wal-demo the command runs the restart-and-recover story:
// serve mixed traffic on a journaled registry, seal a corrected epoch,
// fsync, kill -9, recover, and verify the recovered epoch is
// bit-for-bit the pre-crash one:
//
//	lbserve -wal-demo -wal-dir /tmp/lbwal -agents 50000 -ops 500000
//
// Registry throughput under mixed read/rebid load is measured by the
// BenchmarkRegistry suite (make bench-registry), and the durable
// serving path end to end by servebench.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wal"
)

func main() {
	agents := flag.Int("agents", 100_000, "number of live agents the -wal-demo populates")
	shards := flag.Int("shards", registry.DefaultShards, "lock stripes (rounded up to a power of two)")
	ops := flag.Int("ops", 1_000_000, "operations the -wal-demo serves before its crash")
	seed := flag.Uint64("seed", 1, "random seed")
	rate := flag.Float64("rate", 20, "total arrival rate R")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot (JSON then Prometheus text) after the run")
	healthMode := flag.Bool("health", false, "run the health control-loop chaos demo")
	computers := flag.Int("computers", 8, "population size of the -health demo")
	ticks := flag.Int("ticks", 80, "control ticks the -health demo runs")
	plan := flag.String("plan", "crash=1,stall=3@0.5:1,byz=5@1.6,flap=6@8:0.75", "fault plan of the -health demo (internal/faults spec)")
	faultFrom := flag.Int("fault-from", 5, "first tick the -health fault plan is active")
	faultUntil := flag.Int("fault-until", 45, "first tick the -health faults are repaired (0 = never)")
	healthEvery := flag.Int("health-every", 20, "ticks between -health state tables (0 = final only)")
	walDir := flag.String("wal-dir", "", "directory of the crash-recoverable write-ahead log (-listen, -wal-demo)")
	walSync := flag.String("wal-sync", "batch", "WAL fsync policy: batch, seal or none")
	snapshotEvery := flag.Int("snapshot-every", 8, "sealed epochs between WAL snapshot compactions (0 = never)")
	walDemo := flag.Bool("wal-demo", false, "run the crash/restart recovery demo (needs -wal-dir pointing at a new directory)")
	listen := flag.String("listen", "", "serve the registry over framed TCP on this address")
	sealInterval := flag.Duration("seal-interval", 0, "with -listen, seal an epoch on this cadence in the background (0 = client-driven seals only)")
	recoveredOut := flag.String("recovered-out", "", "with -listen, write the starting epoch/n/S-bits line to this file (comparable against lbload -seal-out)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: lbserve -listen ADDR | -health | -wal-demo -wal-dir DIR [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()

	var ob *obs.Observer
	if *metrics {
		ob = obs.New(0)
	}
	syncPolicy := func() wal.SyncPolicy {
		p, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			os.Exit(1)
		}
		return p
	}

	var code int
	switch {
	case *healthMode:
		code = runHealth(healthConfig{
			computers:  *computers,
			ticks:      *ticks,
			plan:       *plan,
			faultFrom:  *faultFrom,
			faultUntil: *faultUntil,
			seed:       *seed,
			rate:       *rate,
			shards:     *shards,
			every:      *healthEvery,
			ob:         ob,
		}, os.Stdout)
	case *listen != "":
		code = runListen(listenConfig{
			addr:         *listen,
			walDir:       *walDir,
			sync:         syncPolicy(),
			snapEvery:    *snapshotEvery,
			rate:         *rate,
			shards:       *shards,
			sealInterval: *sealInterval,
			recoveredOut: *recoveredOut,
			ob:           ob,
		}, os.Stdout)
	case *walDemo:
		if *agents < demoWorkers || *ops <= 0 {
			fmt.Fprintf(os.Stderr, "lbserve: need -agents >= %d (one per demo worker) and -ops > 0\n", demoWorkers)
			os.Exit(1)
		}
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "lbserve: -wal-demo needs -wal-dir")
			os.Exit(1)
		}
		code = runWALDemo(walDemoConfig{
			dir:       *walDir,
			sync:      syncPolicy(),
			snapEvery: *snapshotEvery,
			agents:    *agents,
			ops:       *ops,
			seed:      *seed,
			rate:      *rate,
			shards:    *shards,
			ob:        ob,
		}, os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if code == 0 && ob != nil {
		fmt.Println()
		if err := ob.Dump(os.Stdout, true, false); err != nil {
			fmt.Fprintln(os.Stderr, "lbserve:", err)
			code = 1
		}
	}
	os.Exit(code)
}

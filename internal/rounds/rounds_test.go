package rounds

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/protocol"
)

func truthfulPopulation() []ComputerSpec {
	return []ComputerSpec{
		{True: 1}, {True: 2}, {True: 5}, {True: 10},
	}
}

func TestTruthfulSteadyState(t *testing.T) {
	res, err := Run(Config{
		Computers:    truthfulPopulation(),
		Rate:         8,
		Rounds:       10,
		JobsPerRound: 20000,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("ran %d rounds", len(res.Records))
	}
	// At z=3 a single false flag across 40 honest agent-rounds is
	// within statistical expectation (the exponential t-statistic is
	// right-skewed); the multi-strike policy exists so that such
	// isolated flags never suspend anyone. Assert exactly that.
	totalFlags := 0
	for _, rec := range res.Records {
		totalFlags += len(rec.Flagged)
		if len(rec.Active) != 4 {
			t.Errorf("round %d active %v", rec.Round, rec.Active)
		}
		// Truthful rounds run at the optimum.
		if math.Abs(rec.Latency-rec.OptLatency) > 1e-9 {
			t.Errorf("round %d latency %v != optimum %v", rec.Round, rec.Latency, rec.OptLatency)
		}
	}
	if totalFlags > 1 {
		t.Errorf("%d false flags across 40 honest agent-rounds, expected at most ~1", totalFlags)
	}
	for i, s := range res.Suspensions {
		if s != 0 {
			t.Errorf("honest computer %d suspended %d times", i, s)
		}
	}
}

func TestPersistentDeviatorGetsSuspended(t *testing.T) {
	pop := truthfulPopulation()
	// Computer 0 always executes 2x slower than it bids.
	pop[0].Strategy = protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2}
	res, err := Run(Config{
		Computers:    pop,
		Rate:         8,
		Rounds:       12,
		JobsPerRound: 30000,
		Seed:         2,
		Policy:       Policy{Strikes: 2, BanRounds: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspensions[0] == 0 {
		t.Fatal("persistent deviator never suspended")
	}
	// While suspended, rounds run without it and at the remaining
	// population's optimum.
	foundSuspendedRound := false
	for _, rec := range res.Records {
		for _, s := range rec.Suspended {
			if s == 0 {
				foundSuspendedRound = true
				for _, a := range rec.Active {
					if a == 0 {
						t.Error("computer both active and suspended")
					}
				}
				if math.Abs(rec.Latency-rec.OptLatency) > 1e-9 {
					t.Errorf("suspension round %d latency %v != optimum %v",
						rec.Round, rec.Latency, rec.OptLatency)
				}
			}
		}
	}
	if !foundSuspendedRound {
		t.Error("no round recorded the suspension")
	}
	// Honest computers are never suspended.
	for i := 1; i < 4; i++ {
		if res.Suspensions[i] != 0 {
			t.Errorf("honest computer %d suspended", i)
		}
	}
}

func TestSuspensionExpires(t *testing.T) {
	pop := truthfulPopulation()
	pop[0].Strategy = protocol.FactorStrategy{BidFactor: 1, ExecFactor: 2}
	res, err := Run(Config{
		Computers:    pop,
		Rate:         8,
		Rounds:       15,
		JobsPerRound: 30000,
		Seed:         3,
		Policy:       Policy{Strikes: 1, BanRounds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With strikes=1 and ban=2 the deviator cycles: active round,
	// then 2 suspended rounds, then active again...
	activeRounds, suspendedRounds := 0, 0
	for _, rec := range res.Records {
		for _, a := range rec.Active {
			if a == 0 {
				activeRounds++
			}
		}
		for _, s := range rec.Suspended {
			if s == 0 {
				suspendedRounds++
			}
		}
	}
	if activeRounds == 0 || suspendedRounds == 0 {
		t.Errorf("expected cycling: active %d, suspended %d", activeRounds, suspendedRounds)
	}
	if res.Suspensions[0] < 2 {
		t.Errorf("expected repeated suspensions, got %d", res.Suspensions[0])
	}
}

func TestChurn(t *testing.T) {
	pop := []ComputerSpec{
		{True: 1},
		{True: 2},
		{True: 5, JoinRound: 3},                 // joins late
		{True: 10, JoinRound: 0, LeaveRound: 5}, // leaves early
	}
	res, err := Run(Config{
		Computers:    pop,
		Rate:         6,
		Rounds:       8,
		JobsPerRound: 2000,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	countActive := func(round, idx int) bool {
		for _, a := range res.Records[round].Active {
			if a == idx {
				return true
			}
		}
		return false
	}
	if countActive(0, 2) {
		t.Error("computer 2 active before joining")
	}
	if !countActive(3, 2) || !countActive(7, 2) {
		t.Error("computer 2 missing after joining")
	}
	if !countActive(4, 3) {
		t.Error("computer 3 missing before leaving")
	}
	if countActive(5, 3) {
		t.Error("computer 3 active after leaving")
	}
}

func TestVariableRate(t *testing.T) {
	res, err := Run(Config{
		Computers:    truthfulPopulation(),
		RateFor:      func(round int) float64 { return 4 + float64(round) },
		Rate:         0, // ignored when RateFor is set
		Rounds:       5,
		JobsPerRound: 2000,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Latency grows with the rate (quadratically in R).
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].OptLatency <= res.Records[i-1].OptLatency {
			t.Errorf("round %d optimum did not grow", i)
		}
	}
}

func TestForgiveAfterResetsStrikes(t *testing.T) {
	// An intermittent deviator that misbehaves far apart in time: with
	// forgiveness enabled, its strikes reset between incidents and it
	// is never suspended under a 2-strike policy.
	run := func(forgive int) *Result {
		pop := truthfulPopulation()
		// Deviates on rounds 0, 6, 12... (fresh counter per run).
		pop[0].Strategy = &onOffStrategy{period: 6}
		res, err := Run(Config{
			Computers:    pop,
			Rate:         8,
			Rounds:       14,
			JobsPerRound: 30000,
			Seed:         7,
			Policy:       Policy{Strikes: 2, BanRounds: 3, ForgiveAfter: forgive},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	withForgiveness := run(3)
	if withForgiveness.Suspensions[0] != 0 {
		t.Errorf("forgiving policy suspended the intermittent deviator %d times",
			withForgiveness.Suspensions[0])
	}
	without := run(0)
	if without.Suspensions[0] == 0 {
		t.Error("strict policy should eventually suspend the intermittent deviator")
	}
}

// onOffStrategy deviates (executes 2x slow) only on rounds that are
// multiples of period; the round is inferred by counting Exec calls.
type onOffStrategy struct {
	period int
	calls  int
}

func (s *onOffStrategy) Bid(trueValue float64) float64 { return trueValue }

func (s *onOffStrategy) Exec(trueValue, _ float64) float64 {
	round := s.calls
	s.calls++
	if round%s.period == 0 {
		return 2 * trueValue
	}
	return trueValue
}

func TestRunValidation(t *testing.T) {
	good := truthfulPopulation()
	cases := []Config{
		{Computers: good[:1], Rate: 5, Rounds: 3},
		{Computers: good, Rate: 5, Rounds: 0},
		{Computers: good, Rounds: 3},
		{Computers: []ComputerSpec{{True: -1}, {True: 1}}, Rate: 5, Rounds: 3},
		{Computers: []ComputerSpec{{True: 1, JoinRound: -2}, {True: 1}}, Rate: 5, Rounds: 3},
		{Computers: good, RateFor: func(int) float64 { return -1 }, Rounds: 3},
		{Computers: good, Rate: 5, Rounds: 3, Faults: faults.New(0, faults.Crash(len(good)))},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Too few active computers mid-run.
	pop := []ComputerSpec{{True: 1}, {True: 2, LeaveRound: 2}}
	if _, err := Run(Config{Computers: pop, Rate: 4, Rounds: 5, JobsPerRound: 500, Seed: 6}); err == nil {
		t.Error("expected error when population collapses")
	}
}

package main

import (
	"fmt"
	"math"

	"repro/internal/lbclient"
	"repro/internal/numeric"
)

// model is the client's record of every agent's last acknowledged bid,
// indexed by agent id (0 marks an id that is not live). Each
// connection writes only the ids it owns, so the two connection
// goroutines never touch the same element; reads happen only while
// both connections are quiet.
type model struct {
	t []float64
}

func newModel(maxID int) *model { return &model{t: make([]float64, maxID)} }

// set records an acknowledged admission or rebid of id.
func (m *model) set(id int, t float64) error {
	if id < 0 || id >= len(m.t) {
		return fmt.Errorf("servebench: server assigned id %d beyond the %d ids the run can admit", id, len(m.t))
	}
	m.t[id] = t
	return nil
}

// clear records an acknowledged departure.
func (m *model) clear(id int) { m.t[id] = 0 }

// sum is the canonical aggregate the server must seal: a Neumaier sum
// of 1/t over the live agents in ascending id order, and the live
// count.
func (m *model) sum() (s float64, n int) {
	var k numeric.KahanSum
	for _, t := range m.t {
		if t != 0 {
			k.Add(1 / t)
			n++
		}
	}
	return k.Value(), n
}

// checkSeal compares an acknowledged seal with the model bit for bit:
// the live count, S, and L* = R²/S under the seal's own rate.
func (m *model) checkSeal(info lbclient.EpochInfo) error {
	s, n := m.sum()
	if info.N != n || math.Float64bits(info.Sum) != math.Float64bits(s) {
		return fmt.Errorf("servebench: epoch %d sealed n=%d S=0x%016x, client model has n=%d S=0x%016x",
			info.Epoch, info.N, math.Float64bits(info.Sum), n, math.Float64bits(s))
	}
	if want := info.Rate * info.Rate / s; math.Float64bits(info.OptimalLatency) != math.Float64bits(want) {
		return fmt.Errorf("servebench: epoch %d sealed L*=%v, want R²/S=%v", info.Epoch, info.OptimalLatency, want)
	}
	return nil
}

// checkLoad verifies a sealed allocation x_i = R/(t_i·S).
func checkLoad(t float64, ep lbclient.EpochInfo, x float64) error {
	if want := ep.Rate / (t * ep.Sum); math.Float64bits(x) != math.Float64bits(want) {
		return fmt.Errorf("servebench: load %v, want R/(t·S)=%v under epoch %d", x, want, ep.Epoch)
	}
	return nil
}

// checkPayment verifies a sealed payment: compensation R/S and bonus
// R²/(S−1/t) − R²/S, the closed forms of Definition 3.3 for a truthful
// agent in the linear model.
func checkPayment(t float64, ep lbclient.EpochInfo, comp, bonus float64) error {
	r, s := ep.Rate, ep.Sum
	wantComp := r / s
	wantBonus := r*r/(s-1/t) - r*r/s
	if math.Float64bits(comp) != math.Float64bits(wantComp) || math.Float64bits(bonus) != math.Float64bits(wantBonus) {
		return fmt.Errorf("servebench: payment (%v, %v), want (%v, %v) under epoch %d", comp, bonus, wantComp, wantBonus, ep.Epoch)
	}
	return nil
}

// sealLine formats an epoch the way lbserve's -recovered-out does.
func sealLine(epoch uint64, n int, s float64) string {
	return fmt.Sprintf("epoch=%d n=%d s=0x%016x", epoch, n, math.Float64bits(s))
}

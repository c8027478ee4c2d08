package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBackSweepMatchesGoLoop holds the backward column sweep's lanes to the
// Go loop they replace, bit for bit with NaN payloads, on 300 random step
// shapes — hidden 0–17, in 1–5: every remainder of the packed row's length
// mod 4, every count of column blocks, paired and single, and a step with
// no rows, where every dxh is +0 — with ±0 rows in dz for both to skip and
// special values (subnormals, ±1e300, ±Inf, the Inf − Inf NaN) sprinkled
// into dz, the weights, the packed input and the gradient it adds into.
func TestBackSweepMatchesGoLoop(t *testing.T) {
	if why := lanesMissing(); why != "" {
		t.Skipf("no lanes on this CPU: %s", why)
	}
	rng := rand.New(rand.NewSource(41))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 300; trial++ {
		hidden, in := rng.Intn(18), 1+rng.Intn(5)
		c := lstmCell{in: in, hidden: hidden}
		nin := in + hidden
		w := RandomVector(c.numParams(), 1/math.Sqrt(float64(nin)), rng)
		grad := RandomVector(c.numParams(), 0.1, rng)
		xh := RandomVector(nin, 0.5, rng)
		dz := RandomVector(4*hidden, 0.1, rng)
		for r := range dz {
			switch rng.Intn(5) {
			case 0:
				dz[r] = 0
			case 1:
				dz[r] = negZero
			}
		}
		if trial%3 >= 1 {
			sprinkle(rng, w, 2+rng.Intn(40))
			sprinkle(rng, dz, 4)
		}
		if trial%3 == 2 {
			sprinkle(rng, xh, 3)
			sprinkle(rng, grad, 5)
		}
		want := grad.Clone()
		gotDxh, wantDxh := make([]float64, nin), make([]float64, nin)
		for j := range gotDxh {
			gotDxh[j], wantDxh[j] = 7, 7 // stale values both must overwrite
		}
		backSweep(gotDxh, grad, w, xh, dz)
		backSweepGo(wantDxh, want, w, xh, dz)
		at := fmt.Sprintf("trial %d (hidden %d, in %d): ", trial, hidden, in)
		requireSameBits(t, at+"dxh", gotDxh, wantDxh)
		requireSameBits(t, at+"grad", grad, want)
	}
}

// TestBackGatesMatchGoLoop holds the backward gate step's lanes to the Go
// loop they replace, bit for bit with NaN payloads, at every hidden size
// 1–17 (every remainder of the four units in flight), on ordinary step
// records and on ones with special values sprinkled into every operand.
func TestBackGatesMatchGoLoop(t *testing.T) {
	if why := lanesMissing(); why != "" {
		t.Skipf("no lanes on this CPU: %s", why)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		hidden := 1 + trial%17
		c := lstmCell{in: 2, hidden: hidden}
		st := &growLSTMTape(nil, 1, c)[0]
		st.cPrev = RandomVector(hidden, 1, rng)
		for _, v := range [][]float64{st.i, st.f, st.o} {
			for k := range v {
				v[k] = rng.Float64()
			}
		}
		for _, v := range [][]float64{st.g, st.tanhC} {
			for k := range v {
				v[k] = 2*rng.Float64() - 1
			}
		}
		dh, dc := RandomVector(hidden, 0.1, rng), RandomVector(hidden, 0.1, rng)
		if trial%2 == 1 {
			for _, v := range [][]float64{st.i, st.f, st.g, st.o, st.cPrev, st.tanhC, dh, dc} {
				sprinkle(rng, v, 6)
			}
		}
		got, want := make([]float64, 5*hidden), make([]float64, 5*hidden) // dz, then dcPrev
		backGates(st, dh, dc, got[4*hidden:], got[:4*hidden])
		backGatesGo(st, dh, dc, want[4*hidden:], want[:4*hidden])
		requireSameBits(t, fmt.Sprintf("trial %d (hidden %d): dz, dcPrev", trial, hidden), got, want)
	}
}

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

// TestBackSweepInMatchesGoLoop holds the input-column sweep's lanes to the
// Go loop they replace, bit for bit with NaN payloads, on 300 random step
// shapes — hidden 0–17, in 1–9: no column block, one and two, and every
// tail — with ±0 rows in dz for both to skip and special values sprinkled
// into dz, the input and the gradient it adds into. Every hPrev entry of
// the gradient must come back untouched.
func TestBackSweepInMatchesGoLoop(t *testing.T) {
	if why := lanesMissing(); why != "" {
		t.Skipf("no lanes on this CPU: %s", why)
	}
	rng := rand.New(rand.NewSource(47))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 300; trial++ {
		hidden, in := rng.Intn(18), 1+rng.Intn(9)
		c := lstmCell{in: in, hidden: hidden}
		cols := c.cols()
		grad := RandomVector(c.numParams(), 0.1, rng)
		x := RandomVector(in, 0.5, rng)
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
			sprinkle(rng, dz, 4)
		}
		if trial%3 == 2 {
			sprinkle(rng, x, 3)
			sprinkle(rng, grad, 5)
		}
		before, want := grad.Clone(), grad.Clone()
		backSweepIn(grad, x, dz, cols)
		backSweepInGo(want, x, dz, cols)
		at := fmt.Sprintf("trial %d (hidden %d, in %d): ", trial, hidden, in)
		requireSameBits(t, at+"grad", grad, want)
		for r := 0; r < 4*hidden; r++ {
			requireSameBits(t, at+fmt.Sprintf("row %d hPrev", r), grad[r*cols+in:r*cols+cols-1], before[r*cols+in:r*cols+cols-1])
		}
	}
}

// TestBackwardFirstMatchesFullStep holds the encoder's first backward step,
// which sweeps only the input columns and the bias, to the full step on
// every kernel path: on a step taken from the zero state, into a gradient
// holding no −0 (ordinary values and +0s), the weight gradient is the same
// bits. A non-finite gate gradient (from an Inf or NaN dh) must take the
// full sweep, so its NaN reaches the hPrev columns as it does there.
func TestBackwardFirstMatchesFullStep(t *testing.T) {
	EachKernelPath(t, func(path string) {
		rng := rand.New(rand.NewSource(53))
		for trial := 0; trial < 200; trial++ {
			hidden, in := 1+rng.Intn(17), 1+rng.Intn(6)
			c := lstmCell{in: in, hidden: hidden}
			w := RandomVector(c.numParams(), 1/math.Sqrt(float64(in+hidden)), rng)
			st := &growLSTMTape(nil, 1, c)[0]
			h0, c0 := make([]float64, hidden), make([]float64, hidden)
			c.forward(w, RandomVector(in, 0.5, rng), h0, c0, st)
			dh, dc := RandomVector(hidden, 0.1, rng), RandomVector(hidden, 0.1, rng)
			nonFinite := trial%4 == 3
			if nonFinite {
				dh[rng.Intn(hidden)] = specials[rng.Intn(len(specials))]
				if d := dh[0]; d-d == 0 {
					dh[0] = math.Inf(1)
				}
			}
			grad := RandomVector(c.numParams(), 0.1, rng)
			for i := range grad {
				if rng.Intn(4) == 0 {
					grad[i] = 0
				}
			}
			want := grad.Clone()
			dcPrev, dxh, dz := make([]float64, hidden), make([]float64, in+hidden), make([]float64, 4*hidden)
			c.backwardFirst(w, grad, st, dh, dc, dcPrev, dxh, dz)
			c.backward(w, want, st, dh, dc, dcPrev, dxh, dz)
			at := fmt.Sprintf("%s, trial %d (hidden %d, in %d, non-finite %v): ", path, trial, hidden, in, nonFinite)
			requireSameBits(t, at+"grad", grad, want)
		}
	})
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specials are the values the forward step must carry exactly as the scalar
// reference does: signed zeros, infinities, NaN, subnormals, and magnitudes
// whose products overflow.
//
// The NaN is the one the hardware generates for Inf − Inf (computed at run
// time; the compiler does not fold a NaN result), which is also the only
// NaN the step can create from the other values. With a second payload in
// play — math.NaN()'s, say — the result of NaN + NaN would be whichever
// operand the compiler put first, in the kernel and in the reference alike
// (a -race build orders them differently from a plain one), and there would
// be no payload to hold either to.
var specials = func() []float64 {
	inf := math.Inf(1)
	return []float64{
		0, math.Copysign(0, -1),
		inf, -inf,
		inf - inf,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		1e300, -1e300,
	}
}()

// sprinkle overwrites about one entry in every with a special value.
func sprinkle(rng *rand.Rand, v []float64, every int) {
	for i := range v {
		if rng.Intn(every) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
}

func requireSameBits(t *testing.T, field string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs reference %d", field, len(got), len(want))
	}
	for k := range want {
		if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
			t.Fatalf("%s[%d] = %v (%#016x) vs reference %v (%#016x)", field, k, got[k], g, want[k], w)
		}
	}
}

// TestLSTMForwardBitsMatchReference holds lstmCell.forward to refLSTMForward
// bit for bit — every field of the step record, NaN payloads included — over
// hidden sizes from one unit to past the 12 and 16 the models and guards
// use, on both sides of one and two activation chunks (gateChunk 16) and at
// every remainder of the four units gateRows runs side by side, and over
// input widths that leave every remainder of the packed row's length mod 4
// (in + hidden; the decoder's is 14) — on ordinary weights and on operands
// seeded with special values, on every kernel path.
func TestLSTMForwardBitsMatchReference(t *testing.T) {
	for _, hidden := range []int{1, 2, 3, 5, 6, 7, 12, 15, 16, 17, 33} {
		for _, in := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("h%d_in%d", hidden, in), func(t *testing.T) {
				EachKernelPath(t, func(path string) { forwardMatchesReference(t, path, hidden, in) })
			})
		}
	}
}

// TestGateRowsMatchGoLoop holds the gate mat-vec's lanes to the Go loop they
// replace, bit for bit with NaN payloads, on 300 random shapes — hidden
// 1–40, in 1–8, any run of units at any offset into the cell — with special
// values sprinkled into the weights and the packed input.
func TestGateRowsMatchGoLoop(t *testing.T) {
	if why := lanesMissing(); why != "" {
		t.Skipf("no lanes on this CPU: %s", why)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		hidden, in := 1+rng.Intn(40), 1+rng.Intn(8)
		c := lstmCell{in: in, hidden: hidden}
		nin, cols := in+hidden, c.cols()
		gs := hidden * cols
		w := RandomVector(c.numParams(), 1/math.Sqrt(float64(nin)), rng)
		xh := RandomVector(nin, 0.5, rng)
		if trial%3 >= 1 {
			sprinkle(rng, w, 2+rng.Intn(40))
		}
		if trial%3 == 2 {
			sprinkle(rng, xh, 3)
		}
		k0 := rng.Intn(hidden)
		k1 := k0 + 1 + rng.Intn(hidden-k0)
		rows := w[k0*cols : 3*gs+k1*cols]
		got, want := make([]float64, 4*(k1-k0)), make([]float64, 4*(k1-k0))
		gateRows(got, rows, xh, gs)
		gateRowsGo(want, rows, xh, gs)
		requireSameBits(t, fmt.Sprintf("trial %d (hidden %d, in %d, units [%d, %d)): z", trial, hidden, in, k0, k1), got, want)
	}
}

func forwardMatchesReference(t *testing.T, path string, hidden, in int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*hidden + in)))
	c := lstmCell{in: in, hidden: hidden}
	tape := growLSTMTape(nil, 1, c)
	for trial := 0; trial < 60; trial++ {
		w := RandomVector(c.numParams(), 1/math.Sqrt(float64(hidden+in)), rng)
		x := RandomVector(in, 0.5, rng)
		hPrev := RandomVector(hidden, 0.5, rng)
		cPrev := RandomVector(hidden, 1, rng)
		// Every third trial is clean; the rest mix specials into the
		// weights, the inputs, or both.
		if trial%3 >= 1 {
			sprinkle(rng, w, 2+rng.Intn(40))
		}
		if trial%3 == 2 {
			sprinkle(rng, x, 2)
			sprinkle(rng, hPrev, 3)
			sprinkle(rng, cPrev, 3)
		}
		ref := refLSTMForward(c, w, x, hPrev, cPrev)
		st := &tape[0]
		c.forward(w, x, hPrev, cPrev, st)
		at := fmt.Sprintf("%s, trial %d: ", path, trial)
		requireSameBits(t, at+"i", st.i, ref.i)
		requireSameBits(t, at+"f", st.f, ref.f)
		requireSameBits(t, at+"g", st.g, ref.g)
		requireSameBits(t, at+"o", st.o, ref.o)
		requireSameBits(t, at+"cNew", st.cNew, ref.cNew)
		requireSameBits(t, at+"tanhC", st.tanhC, ref.tanhC)
		requireSameBits(t, at+"h", st.h, ref.h)
	}
}

// TestActivateMatchesGoLoop holds activate — the lane kernel on each group
// of four units, the Go lane path on the groups it leaves and on the
// hidden mod 4 rest — and activateExp to activateGo (sigmoid and
// math.Tanh per unit), every field it writes bit for bit with NaN
// payloads, on 340 steps over hidden 1–17 and on every kernel path. The
// pre-activations and cPrev are ordinary; or seeded with specials (±0,
// subnormals, the Inf − Inf NaN, ±Inf, ±1e300); or set at tanh's borders
// 0.625 and 0.5·maxLog and the lanes' 350 (for g) and 700 (for the
// sigmoids) on either side, and to the tanhWitnesses; or, on steps whose
// exp arguments all stay in range, cPrev carries NaNs of other payloads
// (the only NaN there, so its payload is what every later NaN of the unit
// carries). A unit with f = 1 and g = 0 passes cPrev on as cNew, so the
// borders reach tanh(cNew).
func TestActivateMatchesGoLoop(t *testing.T) {
	var borders []float64
	for _, b := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 350, 700} {
		for d := -1; d <= 1; d++ {
			borders = append(borders, stepUlps(b, d), -stepUlps(b, d))
		}
	}
	borders = append(borders, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1030)
	borders = append(borders, tanhWitnesses[:]...)
	payloadNaNs := []float64{math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000001), math.Float64frombits(0x7ff0000000000007)}
	if !lanes && lanesMissing() == "" && mathExpSeq() == "fma" {
		// Only a self-check can have turned the lanes off: run them
		// anyway, to show what they get wrong.
		lanes = true
		defer func() { lanes = false }()
	}
	EachKernelPath(t, func(path string) {
		rng := rand.New(rand.NewSource(47))
		for trial := 0; trial < 340; trial++ {
			hidden := 1 + trial%17
			k0, k1 := 0, hidden
			if trial%2 == 1 {
				k0 = rng.Intn(hidden)
				k1 = k0 + 1 + rng.Intn(hidden-k0)
			}
			z := RandomVector(4*hidden, 2+float64(trial%5), rng)
			cPrev := RandomVector(hidden, 2, rng)
			switch trial % 4 {
			case 1:
				sprinkle(rng, z, 5)
				sprinkle(rng, cPrev, 4)
			case 2:
				for k := range cPrev {
					cPrev[k] = borders[rng.Intn(len(borders))]
					if rng.Intn(2) == 0 {
						z[4*k+1], z[4*k+2] = 40, 0 // f = 1, g = 0: cNew = cPrev
					} else {
						z[4*k+rng.Intn(4)] = borders[rng.Intn(len(borders))]
					}
				}
			case 3:
				for k := range cPrev {
					if rng.Intn(3) == 0 {
						cPrev[k] = payloadNaNs[rng.Intn(len(payloadNaNs))]
					}
				}
			}
			tape := growLSTMTape(nil, 3, lstmCell{in: 1, hidden: hidden})
			for k := range tape {
				tape[k].cPrev = cPrev
			}
			got, exp, want := &tape[0], &tape[1], &tape[2]
			activate(got, k0, k1, slices.Clone(z[4*k0:4*k1]))
			activateExp(exp, k0, k1, slices.Clone(z[4*k0:4*k1]))
			activateGo(want, k0, k1, z[4*k0:4*k1])
			at := fmt.Sprintf("%s, trial %d (hidden %d, units [%d, %d)): ", path, trial, hidden, k0, k1)
			for f, name := range []string{"i", "f", "g", "o", "cNew", "tanhC", "h"} {
				requireSameBits(t, at+name, got.activated()[f], want.activated()[f])
				requireSameBits(t, at+"activateExp "+name, exp.activated()[f], want.activated()[f])
			}
		}
	})
}

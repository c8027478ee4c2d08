package nn

import (
	"fmt"
	"math"
	"math/rand"
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

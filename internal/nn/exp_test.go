package nn

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// expSeq is math.archExp on amd64 for |x| < 700, written out in Go: the FMA
// sequence (its avxfma path, with math.FMA for each fused step) or the plain
// one, which GODEBUG=cpu.fma=off selects. It is the oracle for which
// sequence math.Exp runs in this process; expBlocks is the FMA one in lanes.
func expSeq(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := [...]float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
		0.5, 1.0,
	}
	k := math.RoundToEven(log2e * x)
	var r float64
	if fma {
		r = math.FMA(-k, ln2u, x)
		r = math.FMA(-k, ln2l, r)
	} else {
		r = x - k*ln2u
		r = r - k*ln2l
	}
	r *= 0.0625
	p := taylor[0]
	for _, c := range taylor[1:] {
		if fma {
			p = math.FMA(r, p, c)
		} else {
			p = p*r + c
		}
	}
	r *= p
	if fma {
		for i := 0; i < 3; i++ {
			r *= r + 2
		}
		r = math.FMA(r+2, r, 1)
	} else {
		for i := 0; i < 4; i++ {
			r *= 2 + r
		}
		r += 1
	}
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// mathExpSeq names the sequence math.Exp runs here, judged on expProbes.
func mathExpSeq() string {
	fma, plain := true, true
	for _, x := range expProbes {
		e := math.Float64bits(math.Exp(x))
		fma = fma && e == math.Float64bits(expSeq(x, true))
		plain = plain && e == math.Float64bits(expSeq(x, false))
	}
	switch {
	case fma:
		return "fma"
	case plain:
		return "plain"
	}
	return "other"
}

// TestExpProbesSeparateSequences: the self-check can only tell math.Exp's
// two sequences apart if some probe rounds differently under them.
func TestExpProbesSeparateSequences(t *testing.T) {
	if len(expProbes)%4 != 0 {
		t.Fatalf("%d probes, want a multiple of 4 (expBlocks takes whole blocks)", len(expProbes))
	}
	differ := 0
	for _, x := range expProbes {
		if !(math.Abs(x) < 700) {
			t.Fatalf("probe %v outside the lanes' range (−700, 700)", x)
		}
		if expSeq(x, true) != expSeq(x, false) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no probe separates the FMA and plain exp sequences")
	}
	t.Logf("%d of %d probes separate the sequences", differ, len(expProbes))
}

// TestExpGateFollowsMathExp: the lanes are on exactly when the CPU can run
// them and math.Exp runs the sequence they replay.
func TestExpGateFollowsMathExp(t *testing.T) {
	seq := mathExpSeq()
	t.Logf("math.Exp sequence: %s; nn kernels: %s", seq, KernelPath())
	cpuOK := lanesMissing() == ""
	if want := cpuOK && seq == "fma"; lanes != want {
		t.Fatalf("lanes %v, want %v (CPU runs them: %v; math.Exp sequence: %s)", lanes, want, cpuOK, seq)
	}
}

// TestExpGateUnderGODEBUG re-runs this test binary with GODEBUG settings that
// move math.Exp to its plain sequence on the same hardware. The gate must
// fall back to the Go path there — the exp, the gate mat-vec, the gate
// activation and the backward step alike, since one gate covers them — and
// the bit-identity tests must pass on what it chose. (At GOAMD64=v3 and
// above the runtime ignores these settings, math.Exp keeps its FMA
// sequence, and the lanes rightly stay on.)
func TestExpGateUnderGODEBUG(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	tests := []string{"TestExpGateFollowsMathExp", "TestGateRowsMatchGoLoop", "TestActivateMatchesGoLoop", "TestBackGatesMatchGoLoop", "TestBackSweepMatchesGoLoop", "TestLSTMForwardBitsMatchReference", "TestFusedLSTMMatchesReference", "TestPredictFutureBitsMatchReferenceRollout"}
	for _, setting := range []string{"cpu.fma=off", "cpu.avx=off"} {
		cmd := exec.Command(os.Args[0], "-test.count=1", "-test.v", "-test.run=^("+strings.Join(tests, "|")+")$")
		cmd.Env = append(os.Environ(), "GODEBUG="+setting)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", setting, err, out)
		}
		for _, name := range tests {
			// The lane-vs-loop tests skip where the CPU has no lanes.
			if !strings.Contains(string(out), "--- PASS: "+name+" ") && !strings.Contains(string(out), "--- SKIP: "+name+" ") {
				t.Fatalf("GODEBUG=%s: %s did not pass\n%s", setting, name, out)
			}
		}
		switch {
		case strings.Contains(string(out), "math.Exp sequence: fma;"):
			t.Logf("GODEBUG=%s ignored (GOAMD64 level requires the feature); math.Exp keeps the FMA sequence", setting)
		case !strings.Contains(string(out), "nn kernels: scalar ("):
			t.Fatalf("GODEBUG=%s: math.Exp left its FMA sequence but the gate did not move the kernels to Go\n%s", setting, out)
		}
	}
}

// requireExpBits runs expInPlace over xs in chunks and holds every result to
// math.Exp's bits.
func requireExpBits(t *testing.T, path string, xs []float64) {
	t.Helper()
	var buf [4096]float64
	for len(xs) > 0 {
		n := copy(buf[:], xs)
		v := buf[:n]
		expInPlace(v)
		for i, got := range v {
			if want := math.Exp(xs[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: exp(%v = %#016x) = %#016x, math.Exp %#016x", path, xs[i], math.Float64bits(xs[i]), math.Float64bits(got), math.Float64bits(want))
			}
		}
		xs = xs[n:]
	}
}

// TestExpInPlaceMatchesMathExp holds expInPlace to math.Exp bit for bit on
// more than ten million inputs on every path: uniform over the lanes' range,
// N(0, 3²) (the gates' usual arguments), the rounding boundaries of
// x·log₂e = k + ½ for every k the range reaches, ±0, subnormals, and values
// just inside and just outside ±700; then the lanes the guard must hand to
// math.Exp — NaN payloads, ±Inf, ±1e300 — at every position of a block.
func TestExpInPlaceMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var edges []float64
	for k := -1011; k <= 1010; k++ {
		x := (float64(k) + 0.5) / math.Log2E
		for _, d := range []int{-3, -2, -1, 0, 1, 2, 3} {
			edges = append(edges, stepUlps(x, d))
		}
	}
	for _, lim := range []float64{700, -700} {
		for d := -8; d <= 8; d++ {
			edges = append(edges, stepUlps(lim, d))
		}
	}
	for _, x := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, 0x1p-1060, 1e-300} {
		edges = append(edges, x, -x)
	}
	edges = append(edges, math.Copysign(0, -1))
	inf := math.Inf(1)
	nan := inf - inf
	scalarOnly := []float64{nan, -nan, math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000001),
		inf, -inf, 1e300, -1e300, 709.78, -745.2, 710, -800}

	EachKernelPath(t, func(path string) {
		requireExpBits(t, path, edges)
		// Each scalar-only value at each lane of a block, among
		// in-range neighbours, and at the tail.
		for _, s := range scalarOnly {
			for lane := 0; lane < 9; lane++ {
				xs := []float64{0.5, -1.25, 3, -7, 0.5, -1.25, 3, -7, 2}
				xs[lane] = s
				requireExpBits(t, path, xs)
			}
		}
		n := 10_000_000
		if !lanes {
			n = 200_000 // the scalar path is math.Exp itself
		}
		xs := make([]float64, 4096)
		for done := 0; done < n; done += len(xs) {
			for i := range xs {
				if i%2 == 0 {
					xs[i] = (rng.Float64()*2 - 1) * 700
				} else {
					xs[i] = rng.NormFloat64() * 3
				}
			}
			requireExpBits(t, path, xs)
		}
	})
}

// stepUlps moves x by d units in the last place.
func stepUlps(x float64, d int) float64 {
	for ; d > 0; d-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; d < 0; d++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestActivationCombinesMatchMath holds the per-unit combines to the
// functions they stand in for: sigmoidOf(z, exp(sigmoidArg(z))) is
// sigmoid(z) on both sides of 0, and tanhOf(x, exp(tanhArg(x))) is
// math.Tanh(x) in each of its regimes (|x| < 0.625, [0.625, 44.01],
// beyond 44.01) and at their borders, bit for bit, specials included.
func TestActivationCombinesMatchMath(t *testing.T) {
	inf := math.Inf(1)
	xs := []float64{0, math.Copysign(0, -1), inf, -inf, inf - inf, 1e300, -1e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, b := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 350, 700} {
		for d := -2; d <= 2; d++ {
			xs = append(xs, stepUlps(b, d), -stepUlps(b, d))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200_000; i++ {
		var x float64
		switch i % 4 {
		case 0:
			x = (rng.Float64()*2 - 1) * 0.625
		case 1:
			x = 0.625 + rng.Float64()*(44.02-0.625)
		case 2:
			x = 44 + rng.ExpFloat64()*50
		default:
			x = rng.NormFloat64() * 4
		}
		if rng.Intn(2) == 0 {
			x = -x
		}
		xs = append(xs, x)
	}
	for _, x := range xs {
		if got, want := sigmoidOf(x, math.Exp(sigmoidArg(x))), sigmoid(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sigmoid(%v): combine %v, sigmoid %v", x, got, want)
		}
		if got, want := tanhOf(x, math.Exp(tanhArg(x))), math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tanh(%v): combine %v, math.Tanh %v", x, got, want)
		}
	}
}

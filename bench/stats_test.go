package main

import (
	"github.com/spatialcrowd/tamp/internal/stats"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestHostFactorIsTheReferenceOverTheMeanReading(t *testing.T) {
	if got := hostFactor(0.011, 0.011, 0.011); !near(got, 1) {
		t.Errorf("quiet host: factor %v, want 1", got)
	}
	// A host running at two thirds of its speed between the readings: a
	// duration measured there shrinks by a third.
	if got := hostFactor(0.011, 0.0165, 0.0165); !near(got, 2.0/3) {
		t.Errorf("slow host: factor %v, want 2/3", got)
	}
	if got := hostFactor(0.011, 0.011, 0.022); !near(got, 2.0/3) {
		t.Errorf("host slowing down across the lap: factor %v, want 2/3", got)
	}
}

// mkRounds builds rounds from raw lap durations; every lap has factor 1
// unless slow names it, and one op as long as the lap.
func mkRounds(walls [][]float64, slow map[[2]int]float64) []round {
	rs := make([]round, len(walls))
	for r, ws := range walls {
		for k, w := range ws {
			host := 1.0
			if f, ok := slow[[2]int{r, k}]; ok {
				host = f
			}
			rs[r].laps = append(rs[r].laps, lap{wallS: w, cpuS: w / 2, host: host, opsMs: []float64{w * 1e3}})
		}
	}
	return rs
}

func TestLapLevelsOutvoteADisturbedLapIndexByIndex(t *testing.T) {
	// Three rounds of three laps; a neighbour doubled a different lap of
	// every round, and no yardstick reading caught it. No round is clean,
	// yet every lap index has two clean samples.
	rs := mkRounds([][]float64{{0.2, 0.1, 0.3}, {0.1, 0.2, 0.3}, {0.1, 0.1, 0.6}}, nil)
	if got := sum(lapLevels(rs, correctedWall)); !near(got, 0.5) {
		t.Errorf("round time %v, want 0.5", got)
	}
	if got := stats.Median(roundValues(rs, func(r *round) float64 { return r.wallS() })); got < 0.59 {
		t.Errorf("median of whole rounds %v should have been disturbed", got)
	}
	if got := stats.Median(lapLevels(rs, correctedOp)); !near(got, 100) {
		t.Errorf("op level %v ms, want 100", got)
	}
	// Where the readings beside a lap did catch the slow host, the lap is
	// corrected before it votes.
	rs = mkRounds([][]float64{{0.2, 0.1}, {0.2, 0.1}, {0.1, 0.1}}, map[[2]int]float64{{0, 0}: 0.5, {1, 0}: 0.5})
	if got := sum(lapLevels(rs, correctedWall)); !near(got, 0.2) {
		t.Errorf("corrected round time %v, want 0.2", got)
	}
	// Time the system under test spent in fsync goes by the disk's factor.
	l := lap{wallS: 0.3, syncS: 0.1, syncs: 100, host: 0.5, syncHost: 2, opsMs: []float64{3}}
	if got := l.corrected(); !near(got, 0.3) {
		t.Errorf("lap with fsync time corrected to %v, want 0.2×0.5 + 0.1×2", got)
	}
	// Its median op waited for one fsync of the mean length, 1 ms.
	if got := l.correctedOp(); !near(got, 3) {
		t.Errorf("its op corrected to %v, want 2×0.5 + 1×2", got)
	}
	l.opsMs = []float64{0.4} // an op shorter than the mean fsync is all fsync
	if got := l.correctedOp(); !near(got, 0.8) {
		t.Errorf("short op corrected to %v, want 0.4×2", got)
	}
	// A lap without ops has no say in the op level.
	rs[0].laps[1].opsMs, rs[1].laps[1].opsMs, rs[2].laps[1].opsMs = nil, nil, nil
	if got := lapLevels(rs, correctedOp); len(got) != 1 || !near(got[0], 100) {
		t.Errorf("op levels %v, want [100]", got)
	}
}

func TestEndToEndValuesFromLaps(t *testing.T) {
	m := newMeter()
	m.rounds = mkRounds([][]float64{{0.25, 0.25}, {0.25, 0.75}, {0.25, 0.25}}, nil)
	for i := range m.rounds {
		m.rounds[i].ticks = 10
		m.rounds[i].mallocs = 1000
		m.rounds[i].allocBytes = 10 << 10
		m.rounds[i].quality = quality{Submitted: 10, Offers: 8, Accepted: 4, DetourKM: 6}
	}
	vals, spreads := endToEndValues(m, []float64{3, 1, 2})
	for name, want := range map[string]float64{
		"setup_s": 2, "ticks_per_s": 20, "op_p50_ms": 250, "cpu_ms_per_tick": 25,
		"allocs_per_tick": 100, "alloc_kb_per_tick": 1,
		"completion_rate": 0.4, "accept_rate": 0.5, "detour_km": 1.5,
	} {
		if !near(vals[name], want) {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
	if spreads["ticks_per_s"] <= 0 {
		t.Errorf("round spread %v: the disturbed round should show", spreads["ticks_per_s"])
	}
}

// The expected quartiles are statistics.quantiles(xs, n=4) from Python 3.
func TestSpreadMatchesPythonExclusiveQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 13, 40}, 10.5, 26.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2, 4, 8}, 2, 8},
	} {
		want := (tc.q3 - tc.q1) / stats.Median(tc.xs)
		if got := spread(tc.xs); !near(got, want) {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, want)
		}
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

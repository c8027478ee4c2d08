// Package fault is a deterministic fault injector for chaos-testing the
// platform. Every decision — is this worker offline at tick t, is this
// location report dropped, does this predictor call fail — is a pure
// function of (seed, entity id, tick, channel) through a splitmix64-style
// hash. No state, no mutexes, no call-order dependence: the same seed
// produces the same fault schedule whether the platform asks from one
// goroutine or sixteen, in any order, which keeps chaos runs bit-for-bit
// reproducible at every parallelism level.
package fault

import "math"

// Config sets the fault rates. All probabilities are in [0, 1]; zero
// disables that fault class. The zero value injects nothing.
type Config struct {
	// Seed namespaces the whole schedule; two seeds give independent runs.
	Seed int64
	// WorkerChurn is the per-worker-per-tick probability of being offline
	// (invisible to the matcher, as if the app lost connectivity).
	WorkerChurn float64
	// DropReport is the per-report probability that a worker's location
	// ping never reaches the platform.
	DropReport float64
	// GPSNoise is the per-report probability that a ping is perturbed;
	// GPSNoiseCells is the Gaussian σ of that perturbation in grid cells.
	GPSNoise      float64
	GPSNoiseCells float64
	// PredictorFail is the per-worker-per-batch probability that the
	// mobility predictor errors out and the platform must fall back to a
	// stand-still forecast.
	PredictorFail float64
	// DecisionDelay is the per-assignment probability that the worker's
	// accept/reject lands late; the delay is 1..DecisionDelayTicks ticks
	// (DecisionDelayTicks defaults to 3 when the rate is set).
	DecisionDelay      float64
	DecisionDelayTicks int
}

// Injector answers fault queries for one Config. A nil *Injector is valid
// and injects nothing, so callers never need to branch.
type Injector struct {
	cfg Config
}

// New returns an injector for cfg.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Hash channels: each fault class draws from its own independent stream so
// that, e.g., raising the churn rate does not reshuffle which reports drop.
const (
	chChurn uint64 = 1 + iota
	chDrop
	chNoise
	chNoiseU1
	chNoiseU2
	chPredFail
	chDelayHit
	chDelayLen
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds (seed, channel, entity, tick) into one 64-bit draw.
func (f *Injector) hash(ch uint64, entity, tick int) uint64 {
	h := mix64(uint64(f.cfg.Seed) ^ mix64(ch))
	h = mix64(h ^ mix64(uint64(int64(entity))))
	return mix64(h ^ mix64(uint64(int64(tick))))
}

// uniform maps a draw to [0, 1) using the top 53 bits.
func (f *Injector) uniform(ch uint64, entity, tick int) float64 {
	return float64(f.hash(ch, entity, tick)>>11) / (1 << 53)
}

// Offline reports whether the worker is churned out for this tick.
func (f *Injector) Offline(workerID, tick int) bool {
	if f == nil || f.cfg.WorkerChurn <= 0 {
		return false
	}
	return f.uniform(chChurn, workerID, tick) < f.cfg.WorkerChurn
}

// DropReport reports whether the worker's location ping at this tick was
// lost in transit.
func (f *Injector) DropReport(workerID, tick int) bool {
	if f == nil || f.cfg.DropReport <= 0 {
		return false
	}
	return f.uniform(chDrop, workerID, tick) < f.cfg.DropReport
}

// GPSNoise returns the (dx, dy) perturbation for the worker's ping at this
// tick, and whether one applies at all. The offset is Gaussian with
// σ = GPSNoiseCells via Box–Muller on two hash-derived uniforms.
func (f *Injector) GPSNoise(workerID, tick int) (dx, dy float64, ok bool) {
	if f == nil || f.cfg.GPSNoise <= 0 || f.cfg.GPSNoiseCells <= 0 {
		return 0, 0, false
	}
	if f.uniform(chNoise, workerID, tick) >= f.cfg.GPSNoise {
		return 0, 0, false
	}
	u1 := f.uniform(chNoiseU1, workerID, tick)
	u2 := f.uniform(chNoiseU2, workerID, tick)
	if u1 < 1e-300 { // guard log(0)
		u1 = 1e-300
	}
	r := math.Sqrt(-2*math.Log(u1)) * f.cfg.GPSNoiseCells
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2), true
}

// PredictorFails reports whether the worker's mobility predictor errors out
// for this batch.
func (f *Injector) PredictorFails(workerID, tick int) bool {
	if f == nil || f.cfg.PredictorFail <= 0 {
		return false
	}
	return f.uniform(chPredFail, workerID, tick) < f.cfg.PredictorFail
}

// DecisionDelay returns how many ticks the accept/reject for taskID,
// assigned at tick, arrives late (0 = on time).
func (f *Injector) DecisionDelay(taskID, tick int) int {
	if f == nil || f.cfg.DecisionDelay <= 0 {
		return 0
	}
	if f.uniform(chDelayHit, taskID, tick) >= f.cfg.DecisionDelay {
		return 0
	}
	maxTicks := f.cfg.DecisionDelayTicks
	if maxTicks <= 0 {
		maxTicks = 3
	}
	return 1 + int(f.hash(chDelayLen, taskID, tick)%uint64(maxTicks))
}

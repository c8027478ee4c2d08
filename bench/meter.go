package main

import (
	"bufio"
	"fmt"
	"github.com/spatialcrowd/tamp/internal/stats"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quality is what one round did to the tasks it submitted. Under the
// lockstep driver every field is an exact function of the seed, so two
// rounds of one run must agree on all of them, floating-point sum included.
type quality struct {
	Submitted int     // tasks submitted (or arrived, in a simulation)
	Offers    int     // offers decided by a worker
	Accepted  int     // offers accepted, i.e. tasks completed
	DetourKM  float64 // summed detour of the accepted offers
	Fsyncs    int64   // WAL fsyncs during the measured section
	Replayed  int     // recorded offers an offline replay proposed again
}

func (q quality) completionRate() float64 { return ratio(float64(q.Accepted), float64(q.Submitted)) }
func (q quality) acceptRate() float64     { return ratio(float64(q.Accepted), float64(q.Offers)) }
func (q quality) detourKM() float64       { return ratio(q.DetourKM, float64(q.Accepted)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lap is one timed stretch of a round, between two yardstick readings. The
// k-th lap of every round of a run does the same work.
type lap struct {
	wallS, cpuS float64   // raw
	syncS       float64   // the part of wallS the system under test spent in fsync, raw
	syncs       int64     // how many fsyncs that was
	host        float64   // host-speed factor of this lap: multiply a duration by it
	syncHost    float64   // the same for the time spent in fsync
	opsMs       []float64 // client-visible op latencies, raw
}

// corrected is the lap's duration on the reference host: the time spent in
// fsync by the disk's factor, the rest by the processor's.
func (l *lap) corrected() float64 {
	return (l.wallS-l.syncS)*l.host + l.syncS*l.syncHost
}

// correctedOp is the lap's median op latency on the reference host, in ms.
// Where the system under test fsyncs, the median op is a write that waits for
// one fsync of the lap's mean length; that part goes by the disk's factor.
func (l *lap) correctedOp() float64 {
	op := stats.Median(l.opsMs)
	if l.syncs == 0 {
		return op * l.host
	}
	sync := math.Min(op, l.syncS/float64(l.syncs)*1e3)
	return (op-sync)*l.host + sync*l.syncHost
}

// round is one measured round: the raw readings of its laps plus what the
// workload reported about it.
type round struct {
	laps       []lap
	mallocs    uint64
	allocBytes uint64
	ticks      int
	readsMs    []float64 // read latencies beside the ops, raw
	quality    quality
	traced     bool
}

// wallS is the round's raw duration: its laps without the readings between.
func (r *round) wallS() (s float64) {
	for i := range r.laps {
		s += r.laps[i].wallS
	}
	return s
}

// meter times the measured section of a round. A workload builds its fresh
// state, calls begin, does the round's fixed work with a call to lap
// wherever the work can be cut, calls end, and only then verifies and tears
// down, so neither state building nor checking is timed.
type meter struct {
	yard  *yardstick
	yards []float64 // every compute-yardstick reading of the run, in seconds
	// readings is how many yardstick readings are taken at a lap boundary.
	readings int
	// The request yardstick and its readings, for a workload whose time is
	// bound by requests and fsyncs; its laps go by it. nil otherwise.
	requestYard  *requestYardstick
	requestYards []float64
	syncYards    []float64
	// fsynced, set by such a workload for the length of a round, reads how
	// long the system under test has spent in fsync so far, and how often.
	fsynced func() (seconds float64, n int64)

	attempted, failed int
	failures          []string

	cur    round
	ops    []float64 // op latencies of the lap under way
	before reading   // what opened the lap under way
	t0     time.Time
	cpu0   float64
	sync0  float64
	syncN0 int64
	mem0   runtime.MemStats
	rounds []round
}

func newMeter() *meter { return &meter{yard: newYardstick(), readings: 1} }

// fail records one failed operation; the first few reasons are kept for the
// report.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 8 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// computeReading takes one reading of the compute yardstick.
func (m *meter) computeReading() float64 {
	s, _ := m.yard.run()
	m.yards = append(m.yards, s)
	return s
}

// computeLevel is the mean of n readings of the compute yardstick.
func (m *meter) computeLevel(n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += m.computeReading()
	}
	return total / float64(n)
}

// reading is the host's speed at a lap boundary, in seconds of yardstick:
// the processor's by the yardstick the laps go by, and the disk's where that
// is the request yardstick.
type reading struct{ host, sync float64 }

// read takes m.readings readings of the yardstick the laps go by and returns
// their mean. A request yardstick that fails to answer is a failed op, and
// the lap is judged by the boundary on its other side alone.
func (m *meter) read() reading {
	if m.requestYard == nil {
		return reading{host: m.computeLevel(m.readings)}
	}
	var total reading
	for i := 0; i < m.readings; i++ {
		requests, syncs, err := m.requestYard.run()
		if err != nil {
			m.attempted++
			m.fail("request yardstick: %v", err)
			return m.before
		}
		m.requestYards = append(m.requestYards, requests)
		m.syncYards = append(m.syncYards, syncs)
		total.host += requests
		total.sync += syncs
	}
	n := float64(m.readings)
	return reading{total.host / n, total.sync / n}
}

// reference is the duration of the laps' yardstick on the quiet reference
// host.
func (m *meter) reference() float64 {
	if m.requestYard != nil {
		return R0
	}
	return K0
}

// begin starts the timed section. The collection beforehand puts every round
// at the same point of the GC cycle, so rounds of identical work see the
// same number of collections.
func (m *meter) begin() {
	m.cur = round{}
	runtime.GC()
	m.before = m.read()
	m.startLap()
}

func (m *meter) startLap() {
	m.ops = nil
	if m.fsynced != nil {
		m.sync0, m.syncN0 = m.fsynced()
	}
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

// lap closes the lap under way and opens the next one.
func (m *meter) lap() {
	m.closeLap()
	m.startLap()
}

// closeLap stops the clocks and takes a yardstick reading. The lap's
// host-speed factors are the reference durations over the means of the
// readings on either side of it: the host changes speed from one second to
// the next, so a lap is judged by the readings that touch it. The reading
// itself, and whatever it allocates, is outside every lap.
func (m *meter) closeLap() {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.cur.mallocs += mem.Mallocs - m.mem0.Mallocs
	m.cur.allocBytes += mem.TotalAlloc - m.mem0.TotalAlloc
	l := lap{wallS: wall, cpuS: cpu, opsMs: m.ops}
	if m.fsynced != nil {
		s, n := m.fsynced()
		l.syncS, l.syncs = s-m.sync0, n-m.syncN0
	}
	after := m.read()
	l.host = hostFactor(m.reference(), m.before.host, after.host)
	if l.syncS > 0 {
		l.syncHost = hostFactor(S0, m.before.sync, after.sync)
	}
	m.cur.laps = append(m.cur.laps, l)
	m.before = after
}

// end closes the last lap and files the round under its tick count.
func (m *meter) end(ticks int, q quality) {
	m.closeLap()
	m.cur.ticks = ticks
	m.cur.quality = q
	m.rounds = append(m.rounds, m.cur)
}

// op files one client-visible operation of the lap under way.
func (m *meter) op(d time.Duration) {
	m.ops = append(m.ops, float64(d.Nanoseconds())/1e6)
}

// sideRead files one read issued beside the ops.
func (m *meter) sideRead(d time.Duration) {
	m.cur.readsMs = append(m.cur.readsMs, float64(d.Nanoseconds())/1e6)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

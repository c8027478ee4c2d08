// Command bench is the repository's end-to-end benchmark: one driver, one
// set of metric definitions, and every layer of the pipeline — trajectory
// report, forecast, candidate index, PPI/KM matching, offer, accept/reject —
// under it, as a served request and as a simulator tick. README.md in this
// directory says what each workload is for and how each metric is defined.
//
//	bench -workload serve -seed 1 -seconds 12 -trace 0   one run, end-to-end metrics
//	bench -workload serve -trace 1                       one traced run, per-layer metrics
//	bench                                                 every workload, each in its own process
//	bench -agree 5                                        two interleaved sets of five full runs
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"github.com/spatialcrowd/tamp/internal/stats"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs. setup makes the seeded
// inputs and boots whatever the rounds share; it is what setup_s times.
// round builds a fresh initial state, brackets its fixed, deterministic work
// with m.begin and m.end, then verifies the outcome.
type workload interface {
	setup(ctx context.Context, seed int64) error
	round(ctx context.Context, m *meter, tr *tracer) error
}

// workloadDef names a workload and says why it exists (BENCHMARK.json
// repeats the reasons).
type workloadDef struct {
	name string
	why  string
	// requestBound says that the workload's time goes into requests and
	// fsyncs, so its laps are corrected by the request yardstick.
	requestBound bool
	// readings is how many yardstick readings are taken at every lap
	// boundary. One serves laps of a tenth of a second; a lap that runs for a
	// second and cannot be cut is judged by four on either side of it.
	readings int
	make     func(tmp string) workload
}

var workloads = []workloadDef{
	{"serve", "router over two durable shards on loopback HTTP: a task submitted at the router, with tier, server, core.Apply and WAL fsync doing the work", true, 1,
		func(tmp string) workload { return &serveWorkload{tmp: tmp} }},
	{"fleet", "one memory-only shard with 5000 workers and 4000-6000 open tasks: index build, batch assembly and from-scratch PPI dominate; forecast cache on its hit path; bypasses tier and WAL", false, 1,
		func(tmp string) workload { return &fleetWorkload{tmp: tmp} }},
	{"simulate", "platform.Run.Simulate recorded, replayed, under KM and LB and under faults: a simulator tick; forecast cache on its miss path, many tiny batches, batched WAL writes; bypasses tier and server", false, 1,
		func(tmp string) workload { return &simulateWorkload{tmp: tmp} }},
	{"offline", "predict.Train then Simulate: the researcher's path, where nn forward+backward, meta-learning, clustering and similarity are the op; bypasses everything online", false, 4,
		func(tmp string) workload { return &offlineWorkload{} }},
}

const (
	defaultSeed    = 1
	defaultSeconds = 15
	setupRepeats   = 3  // set-up runs per run, at least; setup_s is their median
	minRounds      = 5  // measured rounds a run never goes below
	maxRounds      = 64 // and never above
)

// outDir is where trace.json and the run's temporary files go: bench/out
// when started from the repository root, out when started from bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: serve, fleet, simulate or offline (default: all four, each in its own process)")
		seed    = flag.Int64("seed", defaultSeed, "seed every input is generated from")
		seconds = flag.Int("seconds", defaultSeconds, "measure rounds until their laps add up to this much time")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, and the spans in out/trace.json")
		rounds  = flag.Int("rounds", 0, "measure exactly this many rounds instead of -seconds")
		agree   = flag.Int("agree", 0, "run two interleaved sets of N full runs and compare their medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	switch {
	case *agree > 0:
		os.Exit(runAgree(*agree, *seed, *seconds))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	for _, def := range workloads {
		if def.name == *name {
			os.Exit(runOne(def, *seed, *seconds, *rounds, *trace == 1))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runOne runs one workload in this process and prints its metrics. The exit
// code is 0 only when every op succeeded and every check held.
func runOne(def workloadDef, seed int64, seconds, fixedRounds int, traced bool) int {
	// The programs under test log recoveries and shard admissions; keep
	// that off the terminal unless something fails.
	var logs bytes.Buffer
	log.SetOutput(&logs)
	// One processor: the host's two share a core, and a goroutine's speed
	// there depends on what the other is doing (README.md has the readings).
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	out := outDir()
	tmp := filepath.Join(out, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	die := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		os.Stderr.Write(logs.Bytes())
		return 2
	}

	m := newMeter()
	m.readings = def.readings
	if def.requestBound {
		var err error
		if m.requestYard, err = newRequestYardstick(tmp); err != nil {
			return die(err)
		}
		defer m.requestYard.close()
	}
	var wl workload
	var setups []float64
	// Every set-up is corrected by the compute-yardstick readings on either
	// side of it (what it costs is training): four where it ran for a second,
	// like a lap of that length. One that takes milliseconds (offline only
	// generates its inputs) is repeated until the repeats add up to something
	// a clock can hold, with a single reading between two.
	before := m.computeLevel(4)
	for i, total := 0, 0.0; i < setupRepeats || (total < 0.3 && i < 100); i++ {
		wl = def.make(tmp)
		start := time.Now()
		if err := wl.setup(ctx, seed); err != nil {
			return die(err)
		}
		s := time.Since(start).Seconds()
		readings := 1
		if s >= 0.1 {
			readings = 4
		}
		after := m.computeLevel(readings)
		setups = append(setups, s*hostFactor(K0, before, after))
		before = after
		total += s
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// One discarded warm-up round, then the measured ones.
	if err := wl.round(ctx, m, nil); err != nil {
		return die(err)
	}
	m.rounds = nil
	// Rounds are measured until their laps add up to -seconds, or until the
	// state building, checking and yardstick readings between them have
	// stretched the measuring to one and a half times that.
	measured, started := 0.0, time.Now()
	for n := 0; n < maxRounds; n++ {
		if fixedRounds > 0 && n >= fixedRounds {
			break
		}
		if fixedRounds == 0 && n >= minRounds &&
			(measured >= float64(seconds) || time.Since(started).Seconds() >= 1.5*float64(seconds)) {
			break
		}
		tr.arm(n%2 == 1)
		if err := wl.round(ctx, m, tr); err != nil {
			return die(err)
		}
		r := &m.rounds[len(m.rounds)-1]
		r.traced = tr.active()
		measured += r.wallS()
	}
	tr.arm(false)
	// Every round did the same seeded work, so every round must report the
	// same outcome.
	for i := range m.rounds {
		m.attempted++
		if q := m.rounds[i].quality; q != m.rounds[0].quality {
			m.fail("round %d outcome %+v differs from round 1 %+v", i+1, q, m.rounds[0].quality)
		}
	}
	vals, spreads := endToEndValues(m, setups)
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s  seed %d  rounds %d  GOMAXPROCS %d  GOGC %s  host.speed %.3f\n",
		def.name, seed, len(m.rounds), runtime.GOMAXPROCS(0), gogc(), ratio(K0, stats.Median(m.yards)))
	if traced {
		view := &layerView{t: tr, m: m}
		for _, r := range m.rounds {
			if r.traced {
				view.traced = append(view.traced, r)
			} else {
				view.plain = append(view.plain, r)
			}
		}
		for _, lmx := range perLayer {
			v := lmx.from(view)
			res.Metrics[lmx.Name] = value{v, lmx.Unit}
			fmt.Printf("  %-28s %14.4f %s\n", lmx.Name, v, lmx.Unit)
		}
		if cov := res.Metrics["trace.coverage"].Value; (def.name == "serve" || def.name == "fleet") && (cov < 0.8 || cov > 1.2) {
			m.attempted++
			m.fail("trace.coverage %.3f outside [0.8, 1.2]", cov)
			res.Attempted, res.Failed = m.attempted, m.failed
		}
		if err := tr.write(filepath.Join(out, "trace.json"), def.name, seed); err != nil {
			return die(err)
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
			line := fmt.Sprintf("  %-28s %14.4f %s", d.Name, vals[d.Name], d.Unit)
			if sp, ok := spreads[d.Name]; ok {
				line += fmt.Sprintf("   (round IQR/median %.3f)", sp)
			}
			fmt.Println(line)
		}
	}
	res.Correct = m.failed == 0
	for _, f := range m.failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	if !res.Correct {
		os.Stderr.Write(logs.Bytes())
	}
	line, err := json.Marshal(res)
	if err != nil {
		return die(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100 (default)"
}

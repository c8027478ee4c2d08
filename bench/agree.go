package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"github.com/spatialcrowd/tamp/internal/stats"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a subprocess of this same binary, so that
// its peak RSS and GC state are its own, and returns the result line. The
// child's table goes to this process's standard output when echo is set.
func runChild(name string, seed int64, seconds, trace int, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil && echo {
			fmt.Println(string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs the four workloads one after the other, each in its own
// process, and prints their tables.
func runAll(seed int64, seconds, trace int) int {
	code := 0
	for _, def := range workloads {
		res, err := runChild(def.name, seed, seconds, trace, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Printf("  attempted %d, failed %d, correct %v\n\n", res.Attempted, res.Failed, res.Correct)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runAgree is the benchmark's test of itself: two sets of n full runs of the
// same binary, interleaved A, B, A, B, … so that both see the same drift of
// the host, the i-th run of either set on seed+i. For every workload and
// end-to-end metric it prints both medians, |med A − med B| / med A, and the
// spread of each set, and it fails if the medians differ by more than the
// metric's bound: the same code must not regress against itself.
func runAgree(n int, seed int64, seconds int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, def := range workloads {
				res, err := runChild(def.name, seed+int64(i), seconds, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d ops failed\n", def.name, seed+int64(i), res.Failed, res.Attempted)
					return 1
				}
				for _, d := range endToEnd {
					k := key{def.name, d.Name}
					sets[set][k] = append(sets[set][k], res.Metrics[d.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "agree: run %d of %d, set %c, %s done\n", i+1, n, 'A'+set, def.name)
			}
		}
	}
	code := 0
	fmt.Println("| workload | metric | median A | median B | \\|A−B\\|/A | bound | spread A | spread B |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, def := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{def.name, d.Name}], sets[1][key{def.name, d.Name}]
			ma, mb := stats.Median(a), stats.Median(b)
			diff := math.Abs(ma-mb) / math.Abs(ma)
			verdict := ""
			if diff > d.Bound {
				verdict = " **over**"
				code = 1
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.4f%s | %.2f | %.4f | %.4f |\n",
				def.name, d.Name, ma, mb, diff, verdict, d.Bound, spread(a), spread(b))
		}
	}
	return code
}

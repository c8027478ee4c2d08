package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// The yardstick is a fixed pure-Go kernel — a 96×96 float64 mat-vec followed
// by a rational squash, 2000 times over — that takes about K0 on a quiet
// host. One reading is taken before and after every lap of a measured round
// and around every set-up; the ratio of its duration to K0 is how fast the
// shared host happened to be running at that moment. It runs on the calling
// goroutine, touches 74 KB, allocates nothing and makes no system call, so
// it tracks the CPU-bound share of a lap and nothing else; the serve
// workload, whose time goes into requests and fsyncs, has the request
// yardstick below.
const (
	yardN     = 96
	yardIters = 2000
)

type yardstick struct {
	m    [yardN * yardN]float64
	x, y [yardN]float64
}

// newYardstick fills the matrix from a fixed linear congruential stream: the
// kernel's work must not depend on the benchmark seed.
func newYardstick() *yardstick {
	ys := &yardstick{}
	state := uint64(0x9E3779B97F4A7C15)
	for i := range ys.m {
		state = state*6364136223846793005 + 1442695040888963407
		ys.m[i] = float64(int64(state>>11)%2001-1000) / 1000 / 8
	}
	return ys
}

// run takes one reading: the time the kernel took, in seconds, and a
// checksum of the final vector (which keeps the loop observable and lets
// the tests pin the arithmetic).
func (ys *yardstick) run() (seconds, checksum float64) {
	start := time.Now()
	for i := range ys.x {
		ys.x[i] = float64(i%7-3) / 4
	}
	x, y := &ys.x, &ys.y
	for it := 0; it < yardIters; it++ {
		for i := 0; i < yardN; i++ {
			row := ys.m[i*yardN : (i+1)*yardN]
			s := 0.25 // a bias keeps the iterate away from zero and denormals
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s / (1 + math.Abs(s))
		}
		x, y = y, x
	}
	for _, v := range x {
		checksum += v
	}
	return time.Since(start).Seconds(), checksum
}

// R0 and S0 are the request yardstick's two readings on the quiet reference
// host, in seconds.
const (
	R0 = 0.0035
	S0 = 0.004
)

// requestReps and syncReps are how many requests and how many fsyncs one
// reading of the request yardstick issues.
const (
	requestReps = 100
	syncReps    = 24
)

// requestYardstick is the yardstick for work that is bound by requests and
// fsyncs instead of arithmetic. One reading is two numbers. The first is the
// time of requestReps small POSTs over a keep-alive loopback connection to a
// handler that appends 96 bytes to a file: how fast the host makes system
// calls, crosses a socket and switches between two goroutines, which is what
// the serve workload's CPU time and the waits between its fsyncs are made of
// and what the compute yardstick does not see (over twelve runs of identical
// work serve's CPU time spread by 8.3 % when its laps were corrected by the
// compute yardstick and by 1.4 % under a request yardstick). The second is
// the time of syncReps appends of 96 bytes each followed by an fsync: how fast
// the host's disk acknowledges. The two are kept apart because the host's
// disk and its processor change speed independently: within an hour the fsync
// went from 190 µs to 110 µs while the requests kept their pace, and a single
// reading that mixed the two in any proportion but serve's own moved serve's
// corrected numbers by 13–34 %. The yardstick touches nothing of the program
// under test — only net/http and os.
type requestYardstick struct {
	call   caller
	hangUp func()
	l      *listener
	file   *os.File
	record [96]byte
}

func newRequestYardstick(dir string) (*requestYardstick, error) {
	file, err := os.Create(filepath.Join(dir, "request-yardstick"))
	if err != nil {
		return nil, err
	}
	ys := &requestYardstick{file: file}
	ys.l, err = listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if _, err := file.Write(ys.record[:]); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	}))
	if err != nil {
		file.Close()
		return nil, err
	}
	ys.call, ys.hangUp = tcpCaller(ys.l.url)
	return ys, nil
}

// run takes one reading: the seconds the requests took, and the seconds the
// fsyncs took.
func (ys *requestYardstick) run() (requests, syncs float64, err error) {
	body := []byte(`{"x":12.5,"y":7.25}`)
	start := time.Now()
	for i := 0; i < requestReps; i++ {
		status, reply, err := ys.call(http.MethodPost, "/", body)
		if err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK {
			return 0, 0, fmt.Errorf("request yardstick: status %d: %s", status, bytes.TrimSpace(reply))
		}
	}
	requests = time.Since(start).Seconds()
	start = time.Now()
	for i := 0; i < syncReps; i++ {
		if _, err := ys.file.Write(ys.record[:]); err != nil {
			return 0, 0, err
		}
		if err := ys.file.Sync(); err != nil {
			return 0, 0, err
		}
	}
	return requests, time.Since(start).Seconds(), nil
}

func (ys *requestYardstick) close() {
	ys.hangUp()
	ys.l.close()
	ys.file.Close()
}

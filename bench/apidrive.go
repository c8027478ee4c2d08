package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/spatialcrowd/tamp/internal/geo"
)

// caller issues one request against the system under test and returns the
// status and body of its reply.
type caller func(method, path string, body []byte) (int, []byte, error)

// tcpCaller talks to base over one keep-alive connection, the way a client
// of the router does.
func tcpCaller(base string) (caller, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	call := func(method, path string, body []byte) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	return call, tr.CloseIdleConnections
}

// recorder is the in-process http.ResponseWriter of handlerCaller; it is
// reused from call to call.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// handlerCaller drives h through ServeHTTP with no socket in between. The
// returned body is valid until the next call.
func handlerCaller(h http.Handler) caller {
	rec := &recorder{header: http.Header{}}
	return func(method, path string, body []byte) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, path, rd)
		if err != nil {
			return 0, nil, err
		}
		clear(rec.header)
		rec.code = http.StatusOK
		rec.body.Reset()
		h.ServeHTTP(rec, req)
		return rec.code, rec.body.Bytes(), nil
	}
}

// driveWorker is one crowd worker as the driver plays it: at gives its true
// location at a tick of the round, and moves says whether it reports every
// tick or parked after its first report.
type driveWorker struct {
	id            int
	at            func(tick int) geo.Point
	detour, speed float64 // cells, cells per tick
	moves         bool
}

type driveTask struct {
	loc      geo.Point
	deadline int
}

// Request classes: which of them is the workload's client-visible op is the
// workload's choice.
const (
	classWrite = iota // report, submit, accept, reject
	classBatch
	classRead
	classClock
)

// apiDriver plays the four-party protocol of Fig. 1 against the HTTP API in
// lockstep: one goroutine issues each tick's requests in a fixed order and
// waits for every reply, so batch contents, plans, offers and every count
// are exact functions of the seed.
type apiDriver struct {
	call      caller
	m         *meter
	opClass   int
	workers   []driveWorker
	arrive    func(tick int) []driveTask // the tasks to submit at a tick
	lookahead int
	taskReads int // GET /api/tasks/{id} issued per tick

	q        quality
	requests int   // requests issued so far
	taskIDs  []int // ids the platform gave the submitted tasks
	open     int   // open tasks now: after the last batch, plus its rejected offers

	batchInput int // tasks the last batch saw: those it left open plus its offers
	buf        []byte
	path       []geo.Point
}

type offerReply struct {
	OfferID  int     `json:"offerId"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
}

// do issues one request, files its latency under its class, and checks the
// status against the ones the protocol allows there.
func (d *apiDriver) do(class int, method, path string, body []byte, want ...int) (int, []byte) {
	d.m.attempted++
	d.requests++
	start := time.Now()
	status, out, err := d.call(method, path, body)
	lat := time.Since(start)
	switch {
	case class == d.opClass:
		d.m.op(lat)
	case class == classRead:
		d.m.sideRead(lat)
	}
	if err != nil {
		d.m.fail("%s %s: %v", method, path, err)
		return 0, nil
	}
	for _, w := range want {
		if status == w {
			return status, out
		}
	}
	d.m.fail("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(out))
	return status, out
}

func (d *apiDriver) point(p geo.Point) []byte {
	b := append(d.buf[:0], `{"x":`...)
	b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
	b = append(b, `,"y":`...)
	b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
	d.buf = b
	return b
}

func (d *apiDriver) report(w *driveWorker, tick int) {
	body := append(d.point(w.at(tick)), '}')
	d.do(classWrite, http.MethodPost, "/api/workers/"+strconv.Itoa(w.id)+"/location", body, http.StatusOK)
}

func (d *apiDriver) submit(t driveTask) {
	body := append(d.point(t.loc), `,"deadline":`...)
	body = strconv.AppendInt(body, int64(t.deadline), 10)
	body = append(body, '}')
	_, out := d.do(classWrite, http.MethodPost, "/api/tasks", body, http.StatusCreated)
	var reply struct {
		ID int `json:"id"`
	}
	if json.Unmarshal(out, &reply) == nil && reply.ID > 0 {
		d.taskIDs = append(d.taskIDs, reply.ID)
		d.q.Submitted++
	}
}

// tick plays one lockstep pass at platform tick k: reports, submissions, the
// batch, every worker's offer poll and decision, a fixed sample of task
// reads, and the clock advance.
func (d *apiDriver) tick(k int) {
	for i := range d.workers {
		if w := &d.workers[i]; w.moves {
			d.report(w, k)
		}
	}
	for _, t := range d.arrive(k) {
		d.submit(t)
	}
	_, out := d.do(classBatch, http.MethodPost, "/api/batch", nil, http.StatusOK)
	var batch struct {
		Offers int `json:"offers"`
		Open   int `json:"open"`
	}
	if err := json.Unmarshal(out, &batch); err != nil {
		d.m.fail("batch reply: %v", err)
	}
	d.batchInput = batch.Open + batch.Offers
	d.open = batch.Open
	for i := range d.workers {
		w := &d.workers[i]
		_, out := d.do(classRead, http.MethodGet, "/api/workers/"+strconv.Itoa(w.id)+"/offers", nil, http.StatusOK)
		if len(out) < 8 { // "null" or "[]": no offer pending
			continue
		}
		var offers []offerReply
		if err := json.Unmarshal(out, &offers); err != nil {
			d.m.fail("offers of worker %d: %v", w.id, err)
			continue
		}
		for _, off := range offers {
			d.decideOffer(w, off, k)
		}
	}
	for i := 0; i < d.taskReads && i < len(d.taskIDs); i++ {
		id := d.taskIDs[len(d.taskIDs)-1-i]
		d.do(classRead, http.MethodGet, "/api/tasks/"+strconv.Itoa(id), nil, http.StatusOK)
	}
	d.do(classClock, http.MethodPost, "/api/tick", nil, http.StatusOK)
}

// decideOffer answers one offer by the true-trajectory rule. A 409 is the
// router's first-accept-wins reconciliation telling the worker that the
// other copy of a border task was taken first: the offer counts as decided
// and not accepted.
func (d *apiDriver) decideOffer(w *driveWorker, off offerReply, k int) {
	d.path = d.path[:0]
	for dt := 1; dt <= d.lookahead; dt++ {
		d.path = append(d.path, w.at(k+dt))
	}
	km, ok := decide(w.at(k), d.path, w.detour, w.speed, geo.Pt(off.X, off.Y), off.Deadline, k)
	action := "/reject"
	if ok {
		action = "/accept"
	}
	status, _ := d.do(classWrite, http.MethodPost, "/api/offers/"+strconv.Itoa(off.OfferID)+action, nil,
		http.StatusOK, http.StatusConflict)
	d.q.Offers++
	if ok && status == http.StatusOK {
		d.q.Accepted++
		d.q.DetourKM += km
	} else {
		d.open++ // a declined task is open again
	}
}

// register adds every worker to the platform and has the parked ones report
// the location they stay at; this is part of building a round's state, not
// of the round.
func (d *apiDriver) register() error {
	failedBefore := d.m.failed
	for i := range d.workers {
		w := &d.workers[i]
		body := fmt.Appendf(nil, `{"id":%d,"detourKm":%g,"speed":%g}`, w.id, geo.CellsToKM(w.detour), w.speed)
		d.do(classClock, http.MethodPost, "/api/workers", body, http.StatusCreated)
		if !w.moves {
			d.report(w, 0)
		}
	}
	if d.m.failed > failedBefore {
		return fmt.Errorf("registering workers: %s", d.m.failures[len(d.m.failures)-1])
	}
	return nil
}

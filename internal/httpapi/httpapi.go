// Package httpapi is the HTTP shell the shard (internal/server) and the
// router (internal/tier) share: the wire types of the shard API, the request
// and JSON reply helpers, the hardening middleware every request passes
// through, and the serve loop. Both processes import it, so the protocol is
// stated once and the tier still depends only on the wire contract, never on
// the shard.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// MaxBodyBytes is the request-body cap of the router and the shard's
// default one (1 MiB): a larger body is refused, not buffered.
const MaxBodyBytes = 1 << 20

// TaskIDLimit bounds task ids on the wire: shard and router answer 400 to a
// caller-chosen id at or above it, and 409 to an id-less submit once their
// next id has reached it. 2^53 is the largest integer every JSON client
// round-trips exactly; it is core.TaskIDLimit, the bound the state machine
// enforces, stated here for the router, which does not link core.
const TaskIDLimit int64 = 1 << 53

// TaskRequest is the body of POST /api/tasks.
type TaskRequest struct {
	// ID, when positive, is a caller-chosen task id below TaskIDLimit (the
	// router allocates globally unique ids so a border task keeps one
	// identity on both shards it is offered to). Zero lets the shard
	// allocate.
	ID       int     `json:"id,omitempty"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"` // absolute tick
}

// TaskResponse is one task as the shard reports it.
type TaskResponse struct {
	ID       int     `json:"id"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
	Status   string  `json:"status"` // open, offered, accepted, expired, cancelled
	Worker   int     `json:"worker,omitempty"`
}

// WorkerRequest is the body of POST /api/workers.
type WorkerRequest struct {
	ID       int     `json:"id"`
	DetourKM float64 `json:"detourKm"`
	Speed    float64 `json:"speed"` // cells per tick
	MR       float64 `json:"mr"`    // optional override of the model's MR
}

// WorkerResponse is one worker as the shard reports it.
type WorkerResponse struct {
	ID       int     `json:"id"`
	DetourKM float64 `json:"detourKm"`
	Speed    float64 `json:"speed"`
	MR       float64 `json:"mr"`
	Online   bool    `json:"online"`
	HasModel bool    `json:"hasModel"`
}

// LocationRequest is the body of POST /api/workers/{id}/location.
type LocationRequest struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// OfferResponse is one entry of GET /api/workers/{id}/offers.
type OfferResponse struct {
	OfferID  int     `json:"offerId"`
	TaskID   int     `json:"taskId"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Deadline int     `json:"deadline"`
}

// OfferRecord is GET /api/offers/{id}: the pending offer's (task, worker)
// pair.
type OfferRecord struct {
	OfferID  int `json:"offerId"`
	TaskID   int `json:"taskId"`
	WorkerID int `json:"workerId"`
}

// BatchResponse answers POST /api/batch.
type BatchResponse struct {
	Tick   int `json:"tick"`
	Offers int `json:"offers"`
	Open   int `json:"open"`
}

// encodeErrOnce rate-limits encoder-failure logging: the first failure is
// worth a line (it usually means a broken client connection or an
// unmarshalable value), every subsequent one would just flood the log.
var encodeErrOnce sync.Once

// WriteJSON commits headers before any body bytes — Content-Type first,
// then the status line — so handlers can never interleave a late header
// with a partial body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		encodeErrOnce.Do(func() { log.Printf("httpapi: WriteJSON: %v", err) })
	}
}

// Error answers status with the JSON body {"error": message}.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ID reads the {id} wildcard of the matched route. A non-numeric id is
// answered 400 ("bad task id" under /api/tasks/, and so on) and ok is false.
func ID(w http.ResponseWriter, r *http.Request) (id int, ok bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		kind, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/api/"), "/")
		Error(w, http.StatusBadRequest, "bad %s id", strings.TrimSuffix(kind, "s"))
	}
	return id, err == nil
}

// Lookup reads the route's {id} and finds its record in m: a non-numeric id
// is answered 400, an id m does not hold 404 with notFound (a format taking
// the id), and ok is false for both.
func Lookup[V any](w http.ResponseWriter, r *http.Request, m map[int]V, notFound string) (id int, v V, ok bool) {
	if id, ok = ID(w, r); !ok {
		return id, v, false
	}
	if v, ok = m[id]; !ok {
		Error(w, http.StatusNotFound, notFound, id)
	}
	return id, v, ok
}

// Decode reads the request's JSON body into v. A body that does not decode
// is answered 400 "bad json" and ok is false.
func Decode(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		Error(w, http.StatusBadRequest, "bad json: %v", err)
		return false
	}
	return true
}

// Unavailable answers 503 with Retry-After: 1: the process cannot take this
// request now, and a retry a second later may succeed.
func Unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	Error(w, http.StatusServiceUnavailable, "%s", msg)
}

// headerTracker remembers whether a handler already committed the response,
// so the recovery middleware knows if a 500 can still be sent.
type headerTracker struct {
	http.ResponseWriter
	wrote bool
}

func (h *headerTracker) WriteHeader(status int) {
	h.wrote = true
	h.ResponseWriter.WriteHeader(status)
}

func (h *headerTracker) Write(b []byte) (int, error) {
	h.wrote = true
	return h.ResponseWriter.Write(b)
}

// Harden is the middleware both processes serve behind. Request bodies are
// capped at maxBody bytes (no cap when it is not positive), and a panic in h
// is recovered: logged under name, counted in panics when that is non-nil,
// and answered with a JSON 500 while nothing has been written yet — a 500
// after a started response would only corrupt it. One bad request never
// takes the process down.
func Harden(name string, h http.Handler, maxBody int64, panics *obs.Counter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ht := &headerTracker{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				if panics != nil {
					panics.Inc()
				}
				log.Printf("%s: recovered panic in %s %s: %v", name, r.Method, r.URL.Path, rec)
				if !ht.wrote {
					Error(ht, http.StatusInternalServerError, "internal error")
				}
			}
		}()
		if maxBody > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		h.ServeHTTP(ht, r)
	})
}

// Serve serves h on addr until ctx is cancelled, then drains in-flight
// requests through http.Server.Shutdown. Requests inherit ctx as their base
// context, so cancelling it also cancels the work they started.
func Serve(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:        addr,
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		<-errc // joins the serve goroutine (ErrServerClosed after Shutdown)
		return err
	case err := <-errc:
		return err
	}
}

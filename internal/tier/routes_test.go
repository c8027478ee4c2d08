package tier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/httpapi"
)

// serveJSON runs one request through h and returns the recorded answer.
func serveJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec
}

// TestRouterRouteTable: every route the router declares answers its own
// method from its handler, a wrong method gets the mux's 405 with Allow, a
// non-numeric {id} a JSON 400, and a path no route names 404.
func TestRouterRouteTable(t *testing.T) {
	tc := newTestCluster(t, 0, 4)
	for id, y := range map[int]float64{1: 10, 2: 30} {
		tc.do("POST", "/api/workers", httpapi.WorkerRequest{ID: id, DetourKM: 8, Speed: 1, MR: 0.8}, nil)
		tc.walk(id, 10, y, 6, 1)
		tc.do("POST", "/api/tasks", httpapi.TaskRequest{X: 18, Y: y, Deadline: 30}, nil)
	}
	tc.do("POST", "/api/batch", nil, nil)
	var o1, o2 []offerView
	tc.do("GET", "/api/workers/1/offers", nil, &o1)
	tc.do("GET", "/api/workers/2/offers", nil, &o2)
	if len(o1) != 1 || len(o2) != 1 {
		t.Fatalf("offers after the batch: %+v, %+v; want one each", o1, o2)
	}

	for _, rt := range []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/api/tasks", httpapi.TaskRequest{X: 80, Y: 25, Deadline: 30}, http.StatusCreated},
		{"GET", "/api/tasks", nil, http.StatusOK},
		{"GET", "/api/tasks/1", nil, http.StatusOK},
		{"DELETE", "/api/tasks/3", nil, http.StatusOK},
		{"POST", "/api/workers", httpapi.WorkerRequest{ID: 3}, http.StatusCreated},
		{"GET", "/api/workers", nil, http.StatusOK},
		{"GET", "/api/workers/3", nil, http.StatusOK}, // not reported yet: the router answers
		{"GET", "/api/workers/1", nil, http.StatusOK},
		{"POST", "/api/workers/3/location", httpapi.LocationRequest{X: 80, Y: 5}, http.StatusOK},
		{"GET", "/api/workers/1/offers", nil, http.StatusOK},
		{"GET", fmt.Sprintf("/api/offers/%d", o1[0].OfferID), nil, http.StatusOK},
		{"POST", fmt.Sprintf("/api/offers/%d/accept", o1[0].OfferID), nil, http.StatusOK},
		{"POST", fmt.Sprintf("/api/offers/%d/reject", o2[0].OfferID), nil, http.StatusOK},
		{"POST", "/api/batch", nil, http.StatusOK},
		{"POST", "/api/tick", nil, http.StatusOK},
		{"GET", "/api/tick", nil, http.StatusOK},
		{"GET", "/healthz", nil, http.StatusOK},
		{"GET", "/readyz", nil, http.StatusOK},
		{"GET", "/metrics", nil, http.StatusOK},
	} {
		if rec := serveJSON(t, tc.router, rt.method, rt.path, rt.body); rec.Code != rt.want {
			t.Errorf("%s %s: status %d, want %d (%s)", rt.method, rt.path, rec.Code, rt.want, rec.Body)
		}
	}

	for _, wrong := range []struct{ method, path, allow string }{
		{"PUT", "/api/tasks", "GET, HEAD, POST"},
		{"POST", "/api/tasks/1", "DELETE, GET, HEAD"},
		{"DELETE", "/api/workers/1", "GET, HEAD"},
		{"GET", "/api/workers/1/location", "POST"},
		{"POST", "/api/offers/1", "GET, HEAD"},
		{"GET", "/api/offers/1/accept", "POST"},
		{"GET", "/api/batch", "POST"},
		{"DELETE", "/api/tick", "GET, HEAD, POST"},
		{"POST", "/readyz", "GET, HEAD"},
	} {
		rec := serveJSON(t, tc.router, wrong.method, wrong.path, nil)
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != wrong.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, Allow %q", wrong.method, wrong.path, rec.Code, rec.Header().Get("Allow"), wrong.allow)
		}
	}

	for _, bad := range []struct{ method, path string }{
		{"GET", "/api/tasks/x"},
		{"DELETE", "/api/tasks/x"},
		{"GET", "/api/workers/x"},
		{"POST", "/api/workers/x/location"},
		{"GET", "/api/workers/x/offers"},
		{"GET", "/api/offers/x"},
		{"POST", "/api/offers/x/accept"},
		{"POST", "/api/offers/x/reject"},
	} {
		rec := serveJSON(t, tc.router, bad.method, bad.path, nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"error":"bad `) {
			t.Errorf("%s %s: %d %s, want a JSON 400", bad.method, bad.path, rec.Code, rec.Body)
		}
	}

	if rec := serveJSON(t, tc.router, "GET", "/api/tasks/1/x", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /api/tasks/1/x: status %d, want 404", rec.Code)
	}
}

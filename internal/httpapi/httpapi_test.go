package httpapi

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// TestHardenRecoversPanics: a panic before the handler wrote anything is
// answered with a JSON 500; one after it started its response leaves that
// response alone. Both are counted.
func TestHardenRecoversPanics(t *testing.T) {
	panics := obs.NewRegistry().Counter("panics")
	mux := http.NewServeMux()
	mux.HandleFunc("/early", func(http.ResponseWriter, *http.Request) { panic("early") })
	mux.HandleFunc("/late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "partial")
		panic("late")
	})
	h := Harden("test", mux, MaxBodyBytes, panics)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/early", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("panic before any write: %d %q, want a JSON 500", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/late", nil))
	if rec.Code != http.StatusAccepted || rec.Body.String() != "partial" {
		t.Fatalf("panic after a write: %d %q, want the handler's own 202 \"partial\"", rec.Code, rec.Body)
	}
	if n := panics.Value(); n != 2 {
		t.Fatalf("panics counted = %d, want 2", n)
	}
}

func TestHardenCapsBodies(t *testing.T) {
	var readErr error
	h := Harden("test", http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		_, readErr = io.ReadAll(r.Body)
	}), 8, nil)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader("0123456789abcdef")))
	var tooLarge *http.MaxBytesError
	if !errors.As(readErr, &tooLarge) {
		t.Fatalf("reading a 16-byte body under an 8-byte cap: %v, want *http.MaxBytesError", readErr)
	}
}

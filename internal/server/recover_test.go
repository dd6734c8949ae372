// White-box test of the recover middleware: a panic escaping a handler
// must be absorbed, counted, and answered with a 500.
package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWithRecoverMiddleware(t *testing.T) {
	s := New(Config{})
	h := s.withRecover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/run", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler bug") {
		t.Errorf("body = %q, want the panic value in it", rec.Body.String())
	}
	if got := s.metrics.PanicsRecovered.Load(); got != 1 {
		t.Errorf("panicsCaught = %d, want 1", got)
	}

	// Healthy handlers pass through untouched.
	h = s.withRecover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot || s.metrics.PanicsRecovered.Load() != 1 {
		t.Errorf("pass-through: status %d, panicsCaught %d", rec.Code, s.metrics.PanicsRecovered.Load())
	}
}

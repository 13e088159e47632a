package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWorkerEndpointsReadStrictJSON holds the worker-facing endpoints to
// the same strict body reader as the client-facing ones: an unknown field
// or trailing data after the JSON value is a 400 naming the problem, and a
// well-formed body is served.
func TestWorkerEndpointsReadStrictJSON(t *testing.T) {
	coord := New(Options{Logf: t.Logf})
	defer coord.Close()
	srv := httptest.NewServer(NewCoordinatorHandler(coord, t.Logf))
	defer srv.Close()

	for _, tc := range []struct {
		name, body string
		status     int
		errPart    string
	}{
		{"well-formed", `{"worker_id":"w1"}`, http.StatusOK, ""},
		{"unknown field", `{"worker_id":"w1","wiat_ms":10}`, http.StatusBadRequest, `unknown field "wiat_ms"`},
		{"trailing data", `{"worker_id":"w1"} {"worker_id":"w2"}`, http.StatusBadRequest, "trailing data"},
	} {
		resp, err := http.Post(srv.URL+"/cluster/v1/poll", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading reply: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		if tc.errPart == "" {
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, tc.errPart) {
			t.Errorf("%s: reply %s, want an error naming %q", tc.name, data, tc.errPart)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"dpm/internal/plancache"
	"dpm/internal/trace"
)

// TestPlanGoldenParity pins the /v1/plan wire bytes for the paper's
// two scenarios to the pre-refactor goldens: the scenario/pipeline
// extraction must not move a single byte, or every deployed plan
// cache and recorded client would silently churn.
func TestPlanGoldenParity(t *testing.T) {
	_, base := startServer(t, Config{})
	for _, s := range trace.Scenarios() {
		req, err := canonicalJSON(PlanRequest{Scenario: s})
		if err != nil {
			t.Fatal(err)
		}
		status, _, body := postJSON(t, base, "/v1/plan", req)
		if status != http.StatusOK {
			t.Fatalf("scenario %s: status %d: %s", s.Name, status, body)
		}
		golden := filepath.Join("testdata", fmt.Sprintf("plan_scenario_%s.golden", s.Name))
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("scenario %s: /v1/plan bytes diverged from %s\n got: %s\nwant: %s",
				s.Name, golden, body, want)
		}
	}
}

// TestPlanCacheKeyStability pins the canonical cache keys for the two
// paper scenarios. A change here means every node in a fleet stops
// sharing cache entries with its differently-versioned peers — bump
// deliberately, never by accident.
func TestPlanCacheKeyStability(t *testing.T) {
	want := map[string]string{
		"I":  "3e4e0d8d67bd3196736a64095aba73fdab1480ee368a0417175f83db0196431c",
		"II": "b2683417c06317ddf408a10302744942b1030534c763fbc2ce9856da2b1822e3",
	}
	for _, s := range trace.Scenarios() {
		req := PlanRequest{Scenario: s}
		if err := validatePlanRequest(&req); err != nil {
			t.Fatal(err)
		}
		req.Scenario.Name = ""
		key, err := plancache.Key("plan", req)
		if err != nil {
			t.Fatal(err)
		}
		if key != want[s.Name] {
			t.Errorf("scenario %s: cache key %s, want %s", s.Name, key, want[s.Name])
		}
	}
}

// batchOf wraps plan requests into a /v1/batch body.
func batchOf(t *testing.T, reqs ...PlanRequest) []byte {
	t.Helper()
	b, err := canonicalJSON(BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchMatchesIndividualPlans is the acceptance check for
// POST /v1/batch: every item must be byte-identical to the same
// request answered by /v1/plan — cold and from cache — and carry the
// same cache disposition.
func TestBatchMatchesIndividualPlans(t *testing.T) {
	custom := trace.ScenarioI()
	custom.Name = "custom"
	custom.InitialCharge = custom.InitialCharge * 0.9
	reqs := []PlanRequest{
		{Scenario: trace.ScenarioI()},
		{Scenario: trace.ScenarioII(), Strategy: "even"},
		{Scenario: custom, MaxIterations: 8, Margin: 0.05},
	}

	// Reference bytes from /v1/plan on a dedicated (cold) server.
	_, refBase := startServer(t, Config{})
	individual := make([][]byte, len(reqs))
	for i, pr := range reqs {
		body, err := canonicalJSON(pr)
		if err != nil {
			t.Fatal(err)
		}
		status, _, resp := postJSON(t, refBase, "/v1/plan", body)
		if status != http.StatusOK {
			t.Fatalf("plan %d: status %d: %s", i, status, resp)
		}
		individual[i] = resp
	}

	_, base := startServer(t, Config{})
	for round, wantCache := range []string{"miss", "hit"} {
		status, _, resp := postJSON(t, base, "/v1/batch", batchOf(t, reqs...))
		if status != http.StatusOK {
			t.Fatalf("round %d: batch status %d: %s", round, status, resp)
		}
		var br BatchResponse
		if err := decodeInto(resp, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(reqs) {
			t.Fatalf("round %d: %d results for %d requests", round, len(br.Results), len(reqs))
		}
		for i, item := range br.Results {
			if item.Status != http.StatusOK {
				t.Fatalf("round %d item %d: status %d: %s", round, i, item.Status, item.Body)
			}
			if item.Cache != wantCache {
				t.Errorf("round %d item %d: cache %q, want %q", round, i, item.Cache, wantCache)
			}
			if got := append(append([]byte(nil), item.Body...), '\n'); !bytes.Equal(got, individual[i]) {
				t.Errorf("round %d item %d: batch bytes diverge from /v1/plan\n got: %s\nwant: %s",
					round, i, got, individual[i])
			}
		}
	}
}

// TestBatchPerItemErrors checks that one hostile item yields a 400
// entry whose body matches /v1/plan's error bytes while its siblings
// still plan.
func TestBatchPerItemErrors(t *testing.T) {
	hostile := trace.ScenarioI()
	grid := *hostile.Charging
	grid.Values = append([]float64(nil), hostile.Charging.Values...)
	grid.Values[0] = 1e308
	hostile.Charging = &grid
	reqs := []PlanRequest{
		{Scenario: trace.ScenarioI()},
		{Scenario: hostile},
	}

	_, base := startServer(t, Config{})
	hostileBody, err := canonicalJSON(reqs[1])
	if err != nil {
		t.Fatal(err)
	}
	status, _, wantErr := postJSON(t, base, "/v1/plan", hostileBody)
	if status != http.StatusBadRequest {
		t.Fatalf("hostile /v1/plan status %d: %s", status, wantErr)
	}

	status, _, resp := postJSON(t, base, "/v1/batch", batchOf(t, reqs...))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, resp)
	}
	var br BatchResponse
	if err := decodeInto(resp, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Status != http.StatusOK {
		t.Errorf("healthy item status %d: %s", br.Results[0].Status, br.Results[0].Body)
	}
	if br.Results[1].Status != http.StatusBadRequest {
		t.Errorf("hostile item status %d, want 400", br.Results[1].Status)
	}
	if got := append(append([]byte(nil), br.Results[1].Body...), '\n'); !bytes.Equal(got, wantErr) {
		t.Errorf("hostile item bytes diverge from /v1/plan error\n got: %s\nwant: %s", got, wantErr)
	}
	var ae apiError
	if err := json.Unmarshal(br.Results[1].Body, &ae); err != nil || ae.Error == "" {
		t.Errorf("hostile item body not a structured error: %s", br.Results[1].Body)
	}
}

// TestBatchRequestLimits checks the batch-level validation: an empty
// list and an oversized one are whole-request 400s.
func TestBatchRequestLimits(t *testing.T) {
	_, base := startServer(t, Config{})
	status, _, body := postJSON(t, base, "/v1/batch", []byte(`{"requests":[]}`))
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch status %d: %s", status, body)
	}
	assertStructuredError(t, body, http.StatusBadRequest)

	many := make([]PlanRequest, 257)
	for i := range many {
		many[i] = PlanRequest{Scenario: trace.ScenarioI()}
	}
	status, _, body = postJSON(t, base, "/v1/batch", batchOf(t, many...))
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d: %s", status, body)
	}
	assertStructuredError(t, body, http.StatusBadRequest)
}

package server

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// postRaw posts body with explicit Content-Type and Accept headers and
// returns status, headers and response body.
func postRaw(t *testing.T, base, path, contentType, accept string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestBinaryCodecRoundTrip: decode(encode(x)) == x for every record
// kind, including optional fields present and absent.
func TestBinaryCodecRoundTrip(t *testing.T) {
	weight := &schedule.Grid{Step: 4.8, Values: []float64{1, 2, 1}}
	reqs := []PlanRequest{
		{Scenario: trace.ScenarioI()},
		{Scenario: trace.ScenarioII(), Strategy: "even", Planner: "yds", MaxIterations: 7, Margin: 0.125},
		{Scenario: trace.Scenario{
			Name:          "weighted",
			Charging:      &schedule.Grid{Step: 4.8, Values: []float64{3, 0, 1}},
			Usage:         &schedule.Grid{Step: 4.8, Values: []float64{1, 4, 2}},
			Weight:        weight,
			CapacityMax:   90,
			CapacityMin:   30,
			InitialCharge: 30,
		}},
	}
	for _, req := range reqs {
		enc := AppendPlanRequestBinary(nil, &req)
		dec, err := DecodePlanRequestBinary(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", req.Scenario.Name, err)
		}
		if !reflect.DeepEqual(*dec, req) {
			t.Errorf("%s: round trip diverged:\n got %+v\nwant %+v", req.Scenario.Name, *dec, req)
		}
	}

	resp := PlanResponse{
		Scenario:   "I",
		Planner:    "yds",
		Tau:        4.8,
		Allocation: []float64{2.25, 0.5, 3},
		Trajectory: []float64{40, 41.2, 39.9, 40},
		Iterations: 3,
		Feasible:   true,
	}
	encR := AppendPlanResponseBinary(nil, &resp)
	decR, err := DecodePlanResponseBinary(encR)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*decR, resp) {
		t.Errorf("plan response round trip diverged:\n got %+v\nwant %+v", *decR, resp)
	}

	batch := BatchRequest{Requests: reqs}
	encB := AppendBatchRequestBinary(nil, &batch)
	decB, err := DecodeBatchRequestBinary(encB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*decB, batch) {
		t.Errorf("batch request round trip diverged")
	}
}

// TestBinaryNameSplice: the server caches the name-free binary body
// and splices the scenario name per response; the spliced bytes must
// equal a direct encode of the named response.
func TestBinaryNameSplice(t *testing.T) {
	resp := PlanResponse{
		Tau:        4.8,
		Allocation: []float64{1, 2},
		Trajectory: []float64{40, 41, 40},
		Iterations: 2,
		Feasible:   true,
	}
	nameless := AppendPlanResponseBinary(nil, &resp)
	named := resp
	named.Scenario = "scenario-I"
	want := AppendPlanResponseBinary(nil, &named)
	got := withScenarioNameBinary("scenario-I", nameless)
	if !bytes.Equal(got, want) {
		t.Errorf("spliced bytes diverge from direct encode:\n got %x\nwant %x", got, want)
	}
	if out := withScenarioNameBinary("", nameless); !bytes.Equal(out, nameless) {
		t.Error("empty-name splice must return the body unchanged")
	}
}

// TestBinaryTruncation: every truncation of a valid record fails to
// decode rather than succeeding with garbage, and trailing bytes are
// rejected.
func TestBinaryTruncation(t *testing.T) {
	req := PlanRequest{Scenario: trace.ScenarioI()}
	enc := AppendPlanRequestBinary(nil, &req)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodePlanRequestBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(enc))
		}
	}
	if _, err := DecodePlanRequestBinary(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestBinaryPlanParity: the binary response for a request is
// semantically identical to the JSON response for the same request —
// same floats bit for bit, same planner, same cache behavior — and
// the two encodings occupy distinct cache entries.
func TestBinaryPlanParity(t *testing.T) {
	srv, base := startServer(t, Config{})
	for _, s := range trace.Scenarios() {
		req := PlanRequest{Scenario: s}

		jsonBody := mustJSON(t, req)
		status, _, jb := postJSON(t, base, "/v1/plan", jsonBody)
		if status != http.StatusOK {
			t.Fatalf("%s json: status %d: %s", s.Name, status, jb)
		}
		var want PlanResponse
		if err := decodeInto(jb, &want); err != nil {
			t.Fatal(err)
		}

		binBody := AppendPlanRequestBinary(nil, &req)
		status, hdr, bb := postRaw(t, base, "/v1/plan", BinaryContentType, BinaryContentType, binBody)
		if status != http.StatusOK {
			t.Fatalf("%s binary: status %d: %s", s.Name, status, bb)
		}
		if ct := hdr.Get("Content-Type"); ct != BinaryContentType {
			t.Errorf("%s binary: Content-Type %q, want %q", s.Name, ct, BinaryContentType)
		}
		if got := hdr.Get("X-Dpmd-Cache"); got != "miss" {
			t.Errorf("%s binary first request: cache %q, want miss", s.Name, got)
		}
		got, err := DecodePlanResponseBinary(bb)
		if err != nil {
			t.Fatalf("%s: decoding binary response: %v", s.Name, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: binary response diverges from JSON:\n got %+v\nwant %+v", s.Name, *got, want)
		}

		// The binary replay is a cache hit with identical bytes.
		status, hdr, bb2 := postRaw(t, base, "/v1/plan", BinaryContentType, BinaryContentType, binBody)
		if status != http.StatusOK {
			t.Fatalf("%s binary replay: status %d", s.Name, status)
		}
		if gotState := hdr.Get("X-Dpmd-Cache"); gotState != "hit" {
			t.Errorf("%s binary replay: cache %q, want hit", s.Name, gotState)
		}
		if !bytes.Equal(bb, bb2) {
			t.Errorf("%s: binary replay bytes diverge", s.Name)
		}

		// Mixed axes: JSON body asking for a binary response, and a
		// binary body asking for JSON, both land on their Accept form.
		status, hdr, mixed := postRaw(t, base, "/v1/plan", "application/json", BinaryContentType, jsonBody)
		if status != http.StatusOK {
			t.Fatalf("%s json→binary: status %d", s.Name, status)
		}
		if !bytes.Equal(mixed, bb) {
			t.Errorf("%s: json→binary bytes diverge from binary→binary", s.Name)
		}
		_ = hdr
		status, _, jm := postRaw(t, base, "/v1/plan", BinaryContentType, "", binBody)
		if status != http.StatusOK {
			t.Fatalf("%s binary→json: status %d", s.Name, status)
		}
		if !bytes.Equal(jm, jb) {
			t.Errorf("%s: binary→json bytes diverge from the JSON golden path", s.Name)
		}
	}
	// Two scenarios × two encodings: four cache entries, no collisions.
	if st := srv.CacheStats(); st.Len != 4 {
		t.Errorf("cache holds %d entries, want 4 (2 scenarios × 2 encodings)", st.Len)
	}
}

// TestBinaryBatchParity: a binary batch response matches the JSON one
// item for item — statuses, cache states, plans and error messages.
func TestBinaryBatchParity(t *testing.T) {
	_, base := startServer(t, Config{})
	reqs := []PlanRequest{
		{Scenario: trace.ScenarioI()},
		{Scenario: trace.ScenarioII(), Planner: "yds"},
		{Scenario: trace.ScenarioI(), Planner: "vaporware"}, // per-item 400
		{Scenario: trace.ScenarioI()},                       // duplicate → hit
	}

	status, _, jb := postJSON(t, base, "/v1/batch", batchOf(t, reqs...))
	if status != http.StatusOK {
		t.Fatalf("json batch: status %d: %s", status, jb)
	}
	var jr BatchResponse
	if err := decodeInto(jb, &jr); err != nil {
		t.Fatal(err)
	}

	enc := AppendBatchRequestBinary(nil, &BatchRequest{Requests: reqs})
	status, hdr, bb := postRaw(t, base, "/v1/batch", BinaryContentType, BinaryContentType, enc)
	if status != http.StatusOK {
		t.Fatalf("binary batch: status %d: %s", status, bb)
	}
	if ct := hdr.Get("Content-Type"); ct != BinaryContentType {
		t.Errorf("binary batch: Content-Type %q", ct)
	}
	items, err := DecodeBatchResponseBinary(bb)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(jr.Results) {
		t.Fatalf("binary batch has %d items, JSON %d", len(items), len(jr.Results))
	}
	for i, item := range items {
		want := jr.Results[i]
		if item.Status != want.Status {
			t.Errorf("item %d: binary status %d, JSON %d", i, item.Status, want.Status)
		}
		// The JSON batch ran first and warmed the "plan" keyspace but
		// not "planb": cache states agree in kind within each run
		// (the duplicate item is a hit in both), not across runs.
		if want.Status == http.StatusOK {
			var jp PlanResponse
			if err := decodeInto(want.Body, &jp); err != nil {
				t.Fatal(err)
			}
			if item.Plan == nil {
				t.Fatalf("item %d: no binary plan", i)
			}
			if !reflect.DeepEqual(*item.Plan, jp) {
				t.Errorf("item %d: binary plan diverges from JSON:\n got %+v\nwant %+v", i, *item.Plan, jp)
			}
		} else {
			var ae apiError
			if err := decodeInto(want.Body, &ae); err != nil {
				t.Fatal(err)
			}
			if item.Message != ae.Error {
				t.Errorf("item %d: binary error %q, JSON %q", i, item.Message, ae.Error)
			}
		}
	}
}

// TestBinaryErrorsStayJSON: top-level failures — malformed binary
// bodies, invalid scenarios under a binary Accept — answer with the
// structured JSON error body, so error handling is uniform across
// encodings.
func TestBinaryErrorsStayJSON(t *testing.T) {
	_, base := startServer(t, Config{})

	status, hdr, body := postRaw(t, base, "/v1/plan", BinaryContentType, BinaryContentType, []byte("not a record"))
	if status != http.StatusBadRequest {
		t.Fatalf("garbage binary body: status %d: %s", status, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("binary decode error Content-Type %q, want JSON", ct)
	}
	assertStructuredError(t, body, http.StatusBadRequest)

	// A structurally valid record with an invalid scenario: same 400
	// class as the JSON path.
	bad := PlanRequest{Scenario: trace.Scenario{
		Name:     "bad",
		Charging: &schedule.Grid{Step: 4.8, Values: []float64{1}},
		Usage:    &schedule.Grid{Step: 4.8, Values: []float64{1, 2}},
	}}
	status, _, body = postRaw(t, base, "/v1/plan", BinaryContentType, BinaryContentType,
		AppendPlanRequestBinary(nil, &bad))
	if status != http.StatusBadRequest {
		t.Fatalf("geometry mismatch: status %d: %s", status, body)
	}
	assertStructuredError(t, body, http.StatusBadRequest)
}

// TestJSONGoldenUnchangedAfterBinaryTraffic: binary traffic must not
// perturb the JSON wire form — the golden bytes hold even when the
// same scenario has already been planned and cached through the
// binary keyspace.
func TestJSONGoldenUnchangedAfterBinaryTraffic(t *testing.T) {
	_, base := startServer(t, Config{})
	req := PlanRequest{Scenario: trace.ScenarioI()}
	enc := AppendPlanRequestBinary(nil, &req)
	if status, _, body := postRaw(t, base, "/v1/plan", BinaryContentType, BinaryContentType, enc); status != http.StatusOK {
		t.Fatalf("binary warmup: status %d: %s", status, body)
	}
	status, _, body := postJSON(t, base, "/v1/plan", mustJSON(t, req))
	if status != http.StatusOK {
		t.Fatalf("json: status %d: %s", status, body)
	}
	assertGolden(t, "plan_scenario_I.golden", body)
}

// TestBinaryPlanIgnoresTrace: the trace envelope is JSON-only. A
// binary-Accept /v1/plan that opts into tracing gets the bare binary
// record, byte-identical to the untraced reply, with no trace header.
func TestBinaryPlanIgnoresTrace(t *testing.T) {
	_, base := startServer(t, Config{})
	enc := AppendPlanRequestBinary(nil, &PlanRequest{Scenario: trace.ScenarioI()})
	status, _, plain := postRaw(t, base, "/v1/plan", BinaryContentType, BinaryContentType, enc)
	if status != http.StatusOK {
		t.Fatalf("untraced: status %d: %s", status, plain)
	}

	req, err := http.NewRequest(http.MethodPost, base+"/v1/plan", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	req.Header.Set(traceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	traced, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced: status %d: %s", resp.StatusCode, traced)
	}
	if got := resp.Header.Get(traceHeader); got != "" {
		t.Errorf("binary reply carries %s: %q", traceHeader, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryContentType {
		t.Errorf("traced binary reply Content-Type %q, want %q", ct, BinaryContentType)
	}
	if !bytes.Equal(traced, plain) {
		t.Errorf("traced binary bytes diverge from the untraced reply:\n got %x\nwant %x", traced, plain)
	}
}

// TestBinaryBatchSharesNamedEntries: batch items that name one
// scenario differently share a single "planb" cache entry, and each
// item's record carries its own name spliced back in.
func TestBinaryBatchSharesNamedEntries(t *testing.T) {
	srv, base := startServer(t, Config{})
	names := []string{"node-a", "node-b", ""}
	reqs := make([]PlanRequest, len(names))
	for i, name := range names {
		reqs[i].Scenario = trace.ScenarioI()
		reqs[i].Scenario.Name = name
	}
	enc := AppendBatchRequestBinary(nil, &BatchRequest{Requests: reqs})
	status, _, body := postRaw(t, base, "/v1/batch", BinaryContentType, BinaryContentType, enc)
	if status != http.StatusOK {
		t.Fatalf("binary batch: status %d: %s", status, body)
	}
	items, err := DecodeBatchResponseBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(names) {
		t.Fatalf("%d items, want %d", len(items), len(names))
	}
	for i, item := range items {
		if item.Status != http.StatusOK || item.Plan == nil {
			t.Fatalf("item %d: status %d, message %q", i, item.Status, item.Message)
		}
		if item.Plan.Scenario != names[i] {
			t.Errorf("item %d: scenario %q, want %q", i, item.Plan.Scenario, names[i])
		}
	}
	if st := srv.CacheStats(); st.Len != 1 {
		t.Errorf("cache holds %d entries, want 1 shared by every name", st.Len)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dpm/internal/plancache"
	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// TestPlanCacheKeyCoverage: changing any input Algorithm 1 consumes —
// a grid step or value, the weight's presence, the battery band, the
// initial charge, strategy, planner, maxIterations, margin or the
// response encoding's key prefix — changes the cache key, so the
// changed request misses; changing only the name, the JSON field
// order or whitespace, or spelling defaults out, keeps the key, so it
// hits.
func TestPlanCacheKeyCoverage(t *testing.T) {
	srv, err := New(Config{CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(body []byte, binary bool) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if binary {
			req.Header.Set("Accept", BinaryContentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Header().Get(cacheHeader)
	}
	marshal := func(req PlanRequest) []byte {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The base request leaves every default out: no battery band, no
	// initial charge, strategy, planner or maxIterations.
	base := func() PlanRequest {
		s := trace.ScenarioI()
		s.CapacityMax, s.CapacityMin, s.InitialCharge = 0, 0, 0
		weights := make([]float64, s.Usage.Len())
		for i := range weights {
			weights[i] = 1 + float64(i%3)
		}
		s.Weight = schedule.NewGrid(s.Usage.Step, weights)
		return PlanRequest{Scenario: s}
	}
	baseBody := marshal(base())
	if got := post(baseBody, false); got != "miss" {
		t.Fatalf("base: cache %q, want miss", got)
	}

	type variant struct {
		name   string
		mutate func(*PlanRequest)
	}
	variants := []variant{
		{"step", func(r *PlanRequest) {
			for _, g := range []*schedule.Grid{r.Scenario.Charging, r.Scenario.Usage, r.Scenario.Weight} {
				g.Step *= 2
			}
		}},
		{"weight absent", func(r *PlanRequest) { r.Scenario.Weight = nil }},
		{"capacityMax", func(r *PlanRequest) { r.Scenario.CapacityMax = trace.DefaultCapacityMax + 1 }},
		{"capacityMin", func(r *PlanRequest) { r.Scenario.CapacityMin = trace.DefaultCapacityMin + 1 }},
		{"initialCharge", func(r *PlanRequest) { r.Scenario.InitialCharge = trace.DefaultCapacityMin + 1 }},
		{"strategy", func(r *PlanRequest) { r.Strategy = "even" }},
		{"planner yds", func(r *PlanRequest) { r.Planner = "yds" }},
		{"planner bunde", func(r *PlanRequest) { r.Planner = "bunde" }},
		{"maxIterations", func(r *PlanRequest) { r.MaxIterations = 8 }},
		{"margin", func(r *PlanRequest) { r.Margin = 0.1 }},
	}
	for _, grid := range []string{"charging", "usage", "weight"} {
		for i := 0; i < 12; i++ {
			grid, i := grid, i
			variants = append(variants, variant{fmt.Sprintf("%s[%d]", grid, i), func(r *PlanRequest) {
				g := map[string]*schedule.Grid{
					"charging": r.Scenario.Charging, "usage": r.Scenario.Usage, "weight": r.Scenario.Weight,
				}[grid]
				g.Values[i] += 0.125
			}})
		}
	}
	for _, v := range variants {
		req := base()
		v.mutate(&req)
		body := marshal(req)
		if got := post(body, false); got != "miss" {
			t.Errorf("%s changed: cache %q, want miss", v.name, got)
		}
		if got := post(body, false); got != "hit" {
			t.Errorf("%s repeated: cache %q, want hit", v.name, got)
		}
	}

	// The binary response form caches under its own prefix.
	if got := post(baseBody, true); got != "miss" {
		t.Errorf("planb prefix: cache %q, want miss", got)
	}
	keyed := PlanRequest{Scenario: trace.ScenarioI()}
	if err := validatePlanRequest(&keyed); err != nil {
		t.Fatal(err)
	}
	keyed.Scenario.Name = ""
	plan, err := plancache.Key("plan", keyed)
	if err != nil {
		t.Fatal(err)
	}
	planb, err := plancache.Key("planb", keyed)
	if err != nil {
		t.Fatal(err)
	}
	if plan == planb {
		t.Errorf("plan and planb keys coincide: %s", plan)
	}

	// Same inputs, other spellings: all hits.
	var generic map[string]any
	if err := json.Unmarshal(baseBody, &generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(generic) // map keys sort: a new field order
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(reordered, baseBody) {
		t.Fatal("reordered body equals the base body")
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, baseBody, "", "\t  "); err != nil {
		t.Fatal(err)
	}
	renamed := base()
	renamed.Scenario.Name = "node-7"
	generic["strategy"], generic["planner"], generic["maxIterations"], generic["margin"] = "proportional", "paper", 16, 0
	sc := generic["scenario"].(map[string]any)
	sc["capacityMax"], sc["capacityMin"], sc["initialCharge"] = trace.DefaultCapacityMax, trace.DefaultCapacityMin, trace.DefaultCapacityMin
	spelled, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"field order":       reordered,
		"whitespace":        indented.Bytes(),
		"name":              marshal(renamed),
		"defaults spelled":  spelled,
		"base repeated":     baseBody,
		"defaults repeated": spelled,
	} {
		if got := post(body, false); got != "hit" {
			t.Errorf("%s: cache %q, want hit", name, got)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"dpm/internal/plancache"
	"dpm/internal/trace"
)

// Per-layer benchmarks of the /v1/plan hit path on the paper's
// 12-slot scenario I; run with -benchmem. BenchmarkPlanCacheHit in the
// root package prices the whole round trip these layers sit in.

var (
	benchReq PlanRequest
	benchKey string
)

// BenchmarkPlanDecodeJSON decodes a /v1/plan JSON body into the
// PlanRequest the handler plans from.
func BenchmarkPlanDecodeJSON(b *testing.B) {
	body, err := json.Marshal(PlanRequest{Scenario: trace.ScenarioI()})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := &http.Request{Body: io.NopCloser(rd)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if err := decodeJSON(r, &benchReq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanKey derives the cache key of a validated plan request,
// as planBody does on every request.
func BenchmarkPlanKey(b *testing.B) {
	req := PlanRequest{Scenario: trace.ScenarioI()}
	if err := validatePlanRequest(&req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, err := plancache.Key("plan", &req)
		if err != nil {
			b.Fatal(err)
		}
		benchKey = key
	}
}

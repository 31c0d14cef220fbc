package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dpm/internal/obs"
)

// postJSONHeaders is postJSON with extra request headers.
func postJSONHeaders(t *testing.T, base, path string, body []byte, headers map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// spanNames flattens a span forest into a set of names.
func spanNames(nodes []obs.SpanNode, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		spanNames(n.Spans, into)
	}
}

// TestTracedPlanLeavesCacheUnchanged is the debug-mode contract: a
// request with "X-Dpmd-Trace: 1" gets the span tree, but the plan
// cache entry and the default response bytes are exactly what an
// untraced request produces — in both orders (traced first populating
// the cache, and traced against a warm cache).
func TestTracedPlanLeavesCacheUnchanged(t *testing.T) {
	srv, base := startServer(t, Config{PoolSize: 4})
	want := expectedPlanBody(t)
	req := planBody(t)

	// Traced request against a cold cache: the miss populates the
	// cache with the default bytes.
	status, hdr, body := postJSONHeaders(t, base, "/v1/plan", req, map[string]string{"X-Dpmd-Trace": "1"})
	if status != http.StatusOK {
		t.Fatalf("traced plan status %d: %s", status, body)
	}
	if hdr.Get(cacheHeader) != "miss" {
		t.Fatalf("cold traced request cache %q, want miss", hdr.Get(cacheHeader))
	}
	if hdr.Get(traceHeader) != "1" {
		t.Fatalf("traced response missing %s header", traceHeader)
	}
	var traced TracedPlanResponse
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatalf("traced body: %v", err)
	}
	// The embedded response is the default body verbatim (minus the
	// trailing newline writeJSONBytes adds).
	if got := append([]byte(nil), append(traced.Response, '\n')...); !bytes.Equal(got, want) {
		t.Fatalf("traced embedded response diverges from default bytes:\n got %s\nwant %s", got, want)
	}
	if traced.Trace.RequestID == "" {
		t.Fatal("traced response missing request id")
	}
	if traced.Trace.RequestID != hdr.Get(requestIDHeader) {
		t.Fatalf("trace request id %q != header %q", traced.Trace.RequestID, hdr.Get(requestIDHeader))
	}

	// The span tree covers the pipeline: cache wrapper, plan stage,
	// Algorithm 1 and its per-iteration spans.
	names := map[string]int{}
	spanNames(traced.Trace.Spans, names)
	for _, want := range []string{"plan.cache", "pipeline.plan", "pipeline.validate", "alloc.Compute", "alloc.iteration"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace (got %v)", want, names)
		}
	}
	// Iteration spans carry the Algorithm 1 telemetry.
	var findIter func(nodes []obs.SpanNode) *obs.SpanNode
	findIter = func(nodes []obs.SpanNode) *obs.SpanNode {
		for i := range nodes {
			if nodes[i].Name == "alloc.iteration" {
				return &nodes[i]
			}
			if n := findIter(nodes[i].Spans); n != nil {
				return n
			}
		}
		return nil
	}
	iter := findIter(traced.Trace.Spans)
	if iter == nil {
		t.Fatal("no alloc.iteration span")
	}
	if _, ok := iter.Attrs["violations"]; !ok {
		t.Errorf("alloc.iteration span lacks violations attr: %v", iter.Attrs)
	}

	// An untraced request now hits the entry the traced miss stored,
	// and serves the canonical bytes.
	status, hdr, body = postJSON(t, base, "/v1/plan", req)
	if status != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("status %d cache %q, want 200 hit", status, hdr.Get(cacheHeader))
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("default response after traced miss diverges:\n got %s\nwant %s", body, want)
	}

	// A traced request against the warm cache embeds the same bytes
	// and reports the hit.
	status, hdr, body = postJSONHeaders(t, base, "/v1/plan", req, map[string]string{"X-Dpmd-Trace": "1"})
	if status != http.StatusOK || hdr.Get(cacheHeader) != "hit" {
		t.Fatalf("warm traced status %d cache %q, want 200 hit", status, hdr.Get(cacheHeader))
	}
	var warm TracedPlanResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if got := append(warm.Response, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("warm traced embedded response diverges from default bytes")
	}
	names = map[string]int{}
	spanNames(warm.Trace.Spans, names)
	if names["plan.cache"] == 0 {
		t.Errorf("warm trace missing plan.cache span: %v", names)
	}
	// Exactly one cache entry exists: tracing never forked the payload.
	if st := srv.CacheStats(); st.Len != 1 || st.Puts != 1 {
		t.Fatalf("cache stats %+v, want exactly one entry from one put", st)
	}
}

// TestMetricsPrometheusExposition checks /metrics carries the typed
// Prometheus families after real traffic — plan requests, a fleet
// session and a flush of the ingestion loop — and nothing else: the
// body must be well-formed exposition.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, base := startServer(t, Config{PoolSize: 2, IngestAddr: "127.0.0.1:0"})
	req := planBody(t)
	for i := 0; i < 2; i++ {
		if status, _, body := postJSON(t, base, "/v1/plan", req); status != http.StatusOK {
			t.Fatalf("plan status %d: %s", status, body)
		}
	}
	if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, "expo-1")); status != http.StatusOK {
		t.Fatalf("register status %d: %s", status, body)
	}
	if status, _, body := postJSON(t, base, "/v1/ingest/flush", nil); status != http.StatusOK {
		t.Fatalf("flush status %d: %s", status, body)
	}
	status, body := getBody(t, base, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE dpmd_http_request_duration_seconds histogram",
		`dpmd_http_request_duration_seconds_bucket{endpoint="/v1/plan",le="+Inf"} 2`,
		`dpmd_http_request_duration_seconds_count{endpoint="/v1/plan"} 2`,
		"# TYPE dpmd_pipeline_stage_duration_seconds histogram",
		`dpmd_pipeline_stage_duration_seconds_count{stage="alloc.Compute"} 1`,
		`dpmd_pipeline_stage_duration_seconds_count{stage="plan.cache"} 2`,
		"# TYPE dpmd_cache_shard_hits_total counter",
		`dpmd_cache_shard_misses_total{cache="plan",shard=`,
		`dpmd_cache_entries{cache="plan"} 1`,
		"dpmd_fleet_sessions_live 1",
		"dpmd_ingest_slots_closed_total 1",
		"# TYPE dpmd_start_time_seconds gauge",
		"# TYPE dpmd_uptime_seconds gauge",
		"# TYPE go_goroutines gauge",
		"# TYPE go_heap_alloc_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for family, want := range map[string]float64{
		`dpmd_cache_shard_hits_total{cache="plan",`:   1,
		`dpmd_cache_shard_misses_total{cache="plan",`: 1,
		`dpmd_cache_shard_puts_total{cache="plan",`:   1,
	} {
		if got := sumSamples(text, family); got != want {
			t.Errorf("sum of %s} = %g, want %g", family, got, want)
		}
	}
	assertExposition(t, text)
}

// sumSamples adds up the values of every sample line that starts with
// prefix — a family name plus the labels to match, e.g. the per-shard
// counters of one cache.
func sumSamples(text, prefix string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// assertExposition checks text is well-formed Prometheus text
// exposition: every sample belongs to a family (its name, with a
// histogram's _bucket/_sum/_count suffix stripped) that an earlier
// "# TYPE" line declared, no family is declared twice, and every
// sample value parses.
func assertExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(decl)
			if len(f) != 2 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			if typed[f[0]] {
				t.Errorf("family %s declared twice", f[0])
			}
			typed[f[0]] = true
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end <= 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		family := line[:end]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && typed[base] {
				family = base
			}
		}
		if !typed[family] {
			t.Errorf("sample %q has no # TYPE line for its family", line)
		}
		if _, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err != nil {
			t.Errorf("sample %q: value does not parse: %v", line, err)
		}
	}
}

// TestRequestIDPropagation covers the three inbound cases: a
// well-formed id is honored and echoed, a malformed one is replaced,
// and a missing one is generated.
func TestRequestIDPropagation(t *testing.T) {
	_, base := startServer(t, Config{PoolSize: 2})
	req := planBody(t)

	_, hdr, _ := postJSONHeaders(t, base, "/v1/plan", req, map[string]string{"X-Request-Id": "node-42.retry_1"})
	if got := hdr.Get(requestIDHeader); got != "node-42.retry_1" {
		t.Errorf("well-formed inbound id not honored: got %q", got)
	}

	_, hdr, _ = postJSONHeaders(t, base, "/v1/plan", req, map[string]string{"X-Request-Id": "bad id; drop table"})
	if got := hdr.Get(requestIDHeader); got == "" || strings.ContainsAny(got, " ;") {
		t.Errorf("malformed inbound id not replaced: got %q", got)
	}

	long := strings.Repeat("x", obs.MaxRequestIDLen+1)
	_, hdr, _ = postJSONHeaders(t, base, "/v1/plan", req, map[string]string{"X-Request-Id": long})
	if got := hdr.Get(requestIDHeader); got == long || got == "" {
		t.Errorf("oversized inbound id not replaced: got %q", got)
	}

	_, hdr, _ = postJSON(t, base, "/v1/plan", req)
	if got := hdr.Get(requestIDHeader); got == "" {
		t.Error("missing inbound id not generated")
	}
}

// TestAccessLogJSON checks structured logging: one JSON object per
// request with the request id and disposition fields.
func TestAccessLogJSON(t *testing.T) {
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf, true)
	_, base := startServer(t, Config{PoolSize: 2, AccessLog: logger})
	req := planBody(t)
	_, hdr, _ := postJSONHeaders(t, base, "/v1/plan", req, map[string]string{"X-Request-Id": "log-test-1"})
	if hdr.Get(requestIDHeader) != "log-test-1" {
		t.Fatalf("request id not echoed")
	}
	var event map[string]any
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line is not JSON: %s", line)
		}
		if m["msg"] == "request" && m["request_id"] == "log-test-1" {
			event, found = m, true
		}
	}
	if !found {
		t.Fatalf("no request event for log-test-1 in:\n%s", buf.String())
	}
	for _, k := range []string{"ts", "method", "path", "status", "bytes", "dur_ms", "cache", "remote"} {
		if _, ok := event[k]; !ok {
			t.Errorf("request event missing %q: %v", k, event)
		}
	}
	if event["path"] != "/v1/plan" || event["cache"] != "miss" {
		t.Errorf("unexpected event fields: %v", event)
	}
}

// TestAccessLogText: the default text encoding writes one "request"
// line per request, in key=value form, with the status and request id.
func TestAccessLogText(t *testing.T) {
	var buf bytes.Buffer
	_, base := startServer(t, Config{PoolSize: 2, AccessLog: obs.NewLogger(&buf, false)})
	status, _, body := postJSONHeaders(t, base, "/v1/plan", planBody(t), map[string]string{"X-Request-Id": "log-text-1"})
	if status != http.StatusOK {
		t.Fatalf("plan status %d: %s", status, body)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(line, " request ") {
			lines = append(lines, line)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%d request lines, want 1, in:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{"status=200", "request_id=log-text-1", "path=/v1/plan"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("request line lacks %q: %s", want, lines[0])
		}
	}
}

// TestDebugListenerServesPprof checks the profiler is reachable on the
// dedicated debug listener and absent from the API listener.
func TestDebugListenerServesPprof(t *testing.T) {
	srv, base := startServer(t, Config{PoolSize: 2, DebugAddr: "127.0.0.1:0"})
	if srv.DebugAddr() == "" {
		t.Fatal("debug listener not bound")
	}
	resp, err := http.Get("http://" + srv.DebugAddr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d, want 200", resp.StatusCode)
	}
	// The API mux must not expose the profiler.
	status, _ := getBody(t, base, "/debug/pprof/")
	if status == http.StatusOK {
		t.Fatalf("API listener serves pprof (status %d)", status)
	}
}

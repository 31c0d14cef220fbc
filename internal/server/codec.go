package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"mime"
	"net/http"
	"strings"
	"sync"

	"dpm/internal/schedule"
	"dpm/internal/trace"
)

// Binary plan codec ------------------------------------------------
//
// Hot fleet clients issue the same /v1/plan and /v1/batch shapes
// thousands of times a second; for them JSON encode/decode is the
// dominant per-request cost once the planning core is columnar. This
// file implements a compact binary encoding of exactly those two
// endpoints' request and response types, negotiated per request:
//
//   - a request body in the binary form declares
//     "Content-Type: application/x-dpm-plan";
//   - a client that wants the response in the binary form sends
//     "Accept: application/x-dpm-plan".
//
// The two are orthogonal (a JSON request may ask for a binary
// response and vice versa), the default stays JSON, and the JSON wire
// bytes are untouched — the golden tests pin them byte-identical.
// Error responses are always JSON at the top level (the status code
// carries the semantics either way); inside a binary batch response,
// per-item failures embed a binary error record so the item stream
// stays self-describing.
//
// Layout: every record opens with the 4-byte magic "DPM1" and a kind
// byte. Scalars are little-endian IEEE-754 float64s; lengths and
// counts are uvarints; a string is a uvarint length plus raw bytes; a
// grid is its step float64 plus a float64 column; optional fields
// carry a 1-byte presence flag. The plan-response record places the
// scenario name first so the server can cache the name-free body and
// splice the name back by rewriting only the record prefix — the
// exact trick the JSON path plays with withScenarioName.
//
// A cached plan response is encoded into pooled scratch and copied
// out once (the LRU owns its bytes). Decoding is allocation-light:
// only the float columns and strings the caller keeps are allocated,
// and every length is bounds-checked against the remaining input
// before allocation so hostile lengths fail fast instead of sizing a
// make().

// BinaryContentType is the negotiated media type of the binary plan
// codec.
const BinaryContentType = "application/x-dpm-plan"

// binaryMagic opens every binary record.
var binaryMagic = [4]byte{'D', 'P', 'M', '1'}

// Record kinds.
const (
	binKindPlanRequest   = 1
	binKindPlanResponse  = 2
	binKindBatchRequest  = 3
	binKindBatchResponse = 4
	binKindError         = 5
)

// binBufPool holds encode scratch. Buffers grow to the largest record
// they have carried and are reused across requests.
var binBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// isBinaryRequest reports whether the request body declares the
// binary media type.
func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	// The substring test keeps mime.ParseMediaType (which allocates)
	// off the JSON hot path; only headers that could plausibly name
	// the binary type pay for real parsing.
	if !strings.Contains(ct, BinaryContentType) {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == BinaryContentType
}

// acceptsBinary reports whether the client asked for a binary
// response.
func acceptsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), BinaryContentType)
}

// --- append-side primitives ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendFloats(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func appendGrid(dst []byte, g *schedule.Grid) []byte {
	if g == nil {
		// A nil required grid encodes as an empty one; the decoder's
		// scenario validation rejects it with the same 400 class the
		// JSON path gives a null schedule.
		dst = appendFloat64(dst, 0)
		return appendUvarint(dst, 0)
	}
	dst = appendFloat64(dst, g.Step)
	return appendFloats(dst, g.Values)
}

func appendOptGrid(dst []byte, g *schedule.Grid) []byte {
	if g == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return appendGrid(dst, g)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendHeader(dst []byte, kind byte) []byte {
	dst = append(dst, binaryMagic[:]...)
	return append(dst, kind)
}

// --- read-side primitives ---

// binReader walks a binary record, latching the first error so
// callers can chain reads and check once.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) header(wantKind byte) {
	if r.err != nil {
		return
	}
	if r.remaining() < 5 {
		r.fail("binary record truncated before header")
		return
	}
	if string(r.b[r.off:r.off+4]) != string(binaryMagic[:]) {
		r.fail("binary record lacks DPM1 magic")
		return
	}
	if r.b[r.off+4] != wantKind {
		r.fail("binary record kind %d, want %d", r.b[r.off+4], wantKind)
		return
	}
	r.off += 5
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("binary record truncated in varint")
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) string_() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("binary string length %d exceeds %d remaining bytes", n, r.remaining())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *binReader) float64_() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("binary record truncated in float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) floats() []float64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n*8 > uint64(r.remaining()) {
		r.fail("binary float column length %d exceeds %d remaining bytes", n, r.remaining())
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

func (r *binReader) grid() *schedule.Grid {
	step := r.float64_()
	values := r.floats()
	if r.err != nil {
		return nil
	}
	return &schedule.Grid{Step: step, Values: values}
}

func (r *binReader) optGrid() *schedule.Grid {
	if !r.bool_() {
		return nil
	}
	return r.grid()
}

func (r *binReader) bool_() bool {
	if r.err != nil {
		return false
	}
	if r.remaining() < 1 {
		r.fail("binary record truncated in bool")
		return false
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.fail("binary bool byte %d", v)
		return false
	}
	return v == 1
}

func (r *binReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("binary record has %d trailing bytes", r.remaining())
	}
	return nil
}

// --- records ---

// appendPlanRequestBody encodes a plan request without the record
// header — the form batch items embed.
func appendPlanRequestBody(dst []byte, req *PlanRequest) []byte {
	s := req.Scenario
	dst = appendString(dst, s.Name)
	dst = appendGrid(dst, s.Charging)
	dst = appendGrid(dst, s.Usage)
	dst = appendOptGrid(dst, s.Weight)
	dst = appendFloat64(dst, s.CapacityMax)
	dst = appendFloat64(dst, s.CapacityMin)
	dst = appendFloat64(dst, s.InitialCharge)
	dst = appendString(dst, req.Strategy)
	dst = appendString(dst, req.Planner)
	dst = appendUvarint(dst, uint64(req.MaxIterations))
	return appendFloat64(dst, req.Margin)
}

// AppendKey appends the request's canonical binary form — the codec
// body, with every float as its exact bits and every string and column
// length-prefixed — so plancache.Key hashes it without a JSON encode.
// The scenario name is presentation, not a planning input: the key
// form writes it empty.
func (req PlanRequest) AppendKey(dst []byte) []byte {
	req.Scenario.Name = ""
	return appendPlanRequestBody(dst, &req)
}

// AppendPlanRequestBinary appends the binary encoding of a plan
// request to dst and returns the extended slice.
func AppendPlanRequestBinary(dst []byte, req *PlanRequest) []byte {
	return appendPlanRequestBody(appendHeader(dst, binKindPlanRequest), req)
}

// readPlanRequestBody decodes the header-free plan-request form. The
// scenario runs through trace.NewScenario so defaults and geometry
// checks match the JSON decoder exactly; an encoded scenario with no
// schedules is rejected the same way an absent JSON field is.
func readPlanRequestBody(r *binReader) (*PlanRequest, error) {
	name := r.string_()
	charging := r.grid()
	usage := r.grid()
	weight := r.optGrid()
	cmax := r.float64_()
	cmin := r.float64_()
	initial := r.float64_()
	strategy := r.string_()
	planner := r.string_()
	maxIter := r.uvarint()
	margin := r.float64_()
	if r.err != nil {
		return nil, r.err
	}
	if maxIter > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("binary maxIterations %d out of range", maxIter)
	}
	s, err := trace.NewScenario(name, charging, usage, weight, cmax, cmin, initial)
	if err != nil {
		return nil, err
	}
	return &PlanRequest{
		Scenario:      s,
		Strategy:      strategy,
		Planner:       planner,
		MaxIterations: int(maxIter),
		Margin:        margin,
	}, nil
}

// DecodePlanRequestBinary decodes one binary plan-request record.
func DecodePlanRequestBinary(b []byte) (*PlanRequest, error) {
	r := &binReader{b: b}
	r.header(binKindPlanRequest)
	req, err := readPlanRequestBody(r)
	if err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// AppendPlanResponseBinary appends the binary encoding of a plan
// response to dst. The scenario name sits immediately after the
// header so a cached, name-free body is spliced per response by
// rewriting only the prefix (withScenarioNameBinary).
func AppendPlanResponseBinary(dst []byte, resp *PlanResponse) []byte {
	dst = appendHeader(dst, binKindPlanResponse)
	dst = appendString(dst, resp.Scenario)
	dst = appendString(dst, resp.Planner)
	dst = appendFloat64(dst, resp.Tau)
	dst = appendFloats(dst, resp.Allocation)
	dst = appendFloats(dst, resp.Trajectory)
	dst = appendUvarint(dst, uint64(resp.Iterations))
	return appendBool(dst, resp.Feasible)
}

// encodePlanBinary renders a plan response as the cache stores it:
// encoded in pooled scratch, then one exact-size copy out, since the
// cache owns its bytes outright (the same contract as canonicalJSON).
func encodePlanBinary(resp *PlanResponse) ([]byte, error) {
	buf := binBufPool.Get().(*[]byte)
	defer binBufPool.Put(buf)
	*buf = AppendPlanResponseBinary((*buf)[:0], resp)
	return bytes.Clone(*buf), nil
}

func readPlanResponseBody(r *binReader) *PlanResponse {
	resp := &PlanResponse{
		Scenario:   r.string_(),
		Planner:    r.string_(),
		Tau:        r.float64_(),
		Allocation: r.floats(),
		Trajectory: r.floats(),
	}
	iters := r.uvarint()
	resp.Feasible = r.bool_()
	if r.err != nil {
		return nil
	}
	if iters > uint64(math.MaxInt32) {
		r.fail("binary iterations %d out of range", iters)
		return nil
	}
	resp.Iterations = int(iters)
	return resp
}

// DecodePlanResponseBinary decodes one binary plan-response record.
func DecodePlanResponseBinary(b []byte) (*PlanResponse, error) {
	r := &binReader{b: b}
	r.header(binKindPlanResponse)
	resp := readPlanResponseBody(r)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// withScenarioNameBinary splices a scenario name into a cached,
// name-free binary plan body: the record is magic(4) + kind(1) +
// empty name (a single zero byte) + rest, so the spliced form is the
// same prefix with the name string in place of the zero byte —
// exactly the bytes AppendPlanResponseBinary would have produced for
// the named response.
func withScenarioNameBinary(name string, body []byte) []byte {
	if name == "" || len(body) < 6 {
		return body
	}
	out := make([]byte, 0, len(body)+len(name)+binary.MaxVarintLen64)
	out = append(out, body[:5]...)
	out = appendString(out, name)
	return append(out, body[6:]...)
}

// AppendBatchRequestBinary appends the binary encoding of a batch
// request: a count followed by header-free plan-request bodies.
func AppendBatchRequestBinary(dst []byte, req *BatchRequest) []byte {
	dst = appendHeader(dst, binKindBatchRequest)
	dst = appendUvarint(dst, uint64(len(req.Requests)))
	for i := range req.Requests {
		dst = appendPlanRequestBody(dst, &req.Requests[i])
	}
	return dst
}

// DecodeBatchRequestBinary decodes one binary batch-request record.
// The item count is sanity-bounded by the remaining input (each item
// is at least ~40 bytes) before any allocation.
func DecodeBatchRequestBinary(b []byte) (*BatchRequest, error) {
	r := &binReader{b: b}
	r.header(binKindBatchRequest)
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("binary batch count %d exceeds %d remaining bytes", n, r.remaining())
	}
	req := &BatchRequest{Requests: make([]PlanRequest, 0, n)}
	for i := uint64(0); i < n; i++ {
		item, err := readPlanRequestBody(r)
		if err != nil {
			return nil, fmt.Errorf("binary batch item %d: %w", i, err)
		}
		req.Requests = append(req.Requests, *item)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// AppendBinaryError appends a binary error record — the per-item
// failure form inside a binary batch response, carrying the same
// status and message the JSON apiError body would.
func AppendBinaryError(dst []byte, status int, msg string) []byte {
	dst = appendHeader(dst, binKindError)
	dst = appendUvarint(dst, uint64(status))
	return appendString(dst, msg)
}

// appendBatchResponseBinary encodes a binary batch response from
// already-encoded item bodies: each Body is a complete binary record —
// a plan response on success, an error record otherwise — exactly as
// the JSON form embeds the verbatim /v1/plan body.
func appendBatchResponseBinary(dst []byte, items []BatchItem) []byte {
	dst = appendHeader(dst, binKindBatchResponse)
	dst = appendUvarint(dst, uint64(len(items)))
	for i := range items {
		dst = appendUvarint(dst, uint64(items[i].Status))
		dst = appendString(dst, items[i].Cache)
		dst = appendUvarint(dst, uint64(len(items[i].Body)))
		dst = append(dst, items[i].Body...)
	}
	return dst
}

// BinaryBatchItem is one decoded item of a binary batch response.
type BinaryBatchItem struct {
	// Status is the HTTP status the item would have received from
	// /v1/plan.
	Status int
	// Cache is "hit" or "miss" for successful items.
	Cache string
	// Plan is the decoded response for 2xx items, nil otherwise.
	Plan *PlanResponse
	// Message carries the error text for non-2xx items.
	Message string
}

// DecodeBatchResponseBinary decodes one binary batch-response record
// into per-item results.
func DecodeBatchResponseBinary(b []byte) ([]BinaryBatchItem, error) {
	r := &binReader{b: b}
	r.header(binKindBatchResponse)
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("binary batch count %d exceeds %d remaining bytes", n, r.remaining())
	}
	items := make([]BinaryBatchItem, 0, n)
	for i := uint64(0); i < n; i++ {
		status := r.uvarint()
		cache := r.string_()
		bodyLen := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("binary batch item %d: %w", i, r.err)
		}
		if bodyLen > uint64(r.remaining()) {
			return nil, fmt.Errorf("binary batch item %d: body length %d exceeds %d remaining bytes", i, bodyLen, r.remaining())
		}
		body := r.b[r.off : r.off+int(bodyLen)]
		r.off += int(bodyLen)
		item := BinaryBatchItem{Status: int(status), Cache: cache}
		if status >= 200 && status < 300 {
			plan, err := DecodePlanResponseBinary(body)
			if err != nil {
				return nil, fmt.Errorf("binary batch item %d: %w", i, err)
			}
			item.Plan = plan
		} else {
			st, msg, err := decodeBinaryError(body)
			if err != nil {
				return nil, fmt.Errorf("binary batch item %d: %w", i, err)
			}
			if st != int(status) {
				return nil, fmt.Errorf("binary batch item %d: embedded status %d disagrees with item status %d", i, st, status)
			}
			item.Message = msg
		}
		items = append(items, item)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return items, nil
}

// decodeBinaryError decodes a binary error record.
func decodeBinaryError(b []byte) (int, string, error) {
	r := &binReader{b: b}
	r.header(binKindError)
	status := r.uvarint()
	msg := r.string_()
	if err := r.finish(); err != nil {
		return 0, "", err
	}
	return int(status), msg, nil
}

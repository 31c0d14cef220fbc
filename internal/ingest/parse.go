package ingest

import (
	"math"
	"strconv"
)

// StatsD line protocol ----------------------------------------------
//
// One datagram carries newline-separated lines of the form
//
//	<device>.events:+N|c[|@rate]   task-arrival counter (events/window)
//	<device>.charge:X|g            charging-power gauge in watts
//	<device>.charge:+X|g / -X|g    gauge delta (StatsD sign convention)
//
// The device id is everything before the last '.'; the metric field
// after it selects the signal. Parsing never panics on hostile input:
// every malformed line maps to a structured drop reason that the
// daemon counts (dpmd_ingest_lines_dropped_total{reason=...}).

// MetricKind discriminates the two accepted StatsD types.
type MetricKind uint8

const (
	// KindCounter is a "|c" line: task arrivals in the flush window.
	KindCounter MetricKind = iota
	// KindGauge is a "|g" line: the charging power in watts.
	KindGauge
)

// Field names the two accepted metric suffixes.
const (
	// FieldEvents is the counter suffix: <device>.events.
	FieldEvents = "events"
	// FieldCharge is the gauge suffix: <device>.charge.
	FieldCharge = "charge"
)

// MaxLineBytes bounds one line; longer lines drop with reason
// "oversize". 512 bytes is far above any well-formed line (device ids
// are capped at 256 by the fleet layer) while keeping hostile
// datagrams cheap to reject.
const MaxLineBytes = 512

// Structured drop reasons. Every line the daemon does not apply is
// counted under exactly one of these.
const (
	// DropEmpty is a blank line (trailing newline in a datagram).
	DropEmpty = "empty"
	// DropOversize is a line beyond MaxLineBytes.
	DropOversize = "oversize"
	// DropMalformed is a line without the name:value|type shape.
	DropMalformed = "malformed"
	// DropName is a missing or unusable device/metric name.
	DropName = "name"
	// DropType is an unknown metric type suffix.
	DropType = "type"
	// DropValue is an unparseable, non-finite or (for counters)
	// negative value.
	DropValue = "value"
	// DropRate is a malformed |@ sample rate.
	DropRate = "rate"
	// DropUntracked is a well-formed sample for a device with no
	// registered fleet session — counted at apply, not parse time,
	// and the cardinality guard against name-flooding.
	DropUntracked = "untracked"
	// DropCardinality is a tracked-device slot refused because the
	// daemon is at its MaxDevices cap.
	DropCardinality = "cardinality"
)

// DropReasons lists every structured drop reason, in exposition
// order; /metrics renders a zero-valued counter per reason so
// dashboards can rate() them before the first drop.
var DropReasons = []string{
	DropEmpty, DropOversize, DropMalformed, DropName, DropType,
	DropValue, DropRate, DropUntracked, DropCardinality,
}

// Sample is one parsed line.
type Sample struct {
	// Device is the fleet device id (the name before the last '.').
	Device string
	// Kind discriminates counter vs gauge.
	Kind MetricKind
	// Value is the parsed number: counted events for counters
	// (sample-rate corrected), watts (or a watt delta) for gauges.
	Value float64
	// Delta marks a signed gauge ("+X"/"-X"): apply relative to the
	// previous gauge level rather than absolutely.
	Delta bool
}

// ParseLine parses one StatsD line. The empty reason means ok;
// otherwise the sample is zero and reason names the drop counter to
// bump. The input slice is never retained.
func ParseLine(line []byte) (Sample, string) {
	device, s, reason := parseLine(line)
	if reason == "" {
		s.Device = string(device)
	}
	return s, reason
}

// parseLine is ParseLine without the device-id copy: it returns the
// device as a subslice of line and leaves Sample.Device empty, so the
// daemon can look the device up by its bytes without allocating.
func parseLine(line []byte) ([]byte, Sample, string) {
	if len(line) == 0 {
		return nil, Sample{}, DropEmpty
	}
	if len(line) > MaxLineBytes {
		return nil, Sample{}, DropOversize
	}
	colon := -1
	for i := 0; i < len(line); i++ {
		if line[i] == ':' {
			colon = i
			break
		}
	}
	if colon <= 0 {
		return nil, Sample{}, DropMalformed
	}
	name := line[:colon]
	rest := line[colon+1:]
	pipe := -1
	for i := 0; i < len(rest); i++ {
		if rest[i] == '|' {
			pipe = i
			break
		}
	}
	if pipe <= 0 {
		return nil, Sample{}, DropMalformed
	}
	valueText := rest[:pipe]
	typeText := rest[pipe+1:]

	// Optional trailing "|@rate" (counters only, per StatsD).
	rate := 1.0
	if i := indexByte(typeText, '|'); i >= 0 {
		tail := typeText[i+1:]
		typeText = typeText[:i]
		if len(tail) < 2 || tail[0] != '@' {
			return nil, Sample{}, DropRate
		}
		r, err := strconv.ParseFloat(string(tail[1:]), 64)
		if err != nil || math.IsNaN(r) || r <= 0 || r > 1 {
			return nil, Sample{}, DropRate
		}
		rate = r
	}

	var kind MetricKind
	switch {
	case len(typeText) == 1 && typeText[0] == 'c':
		kind = KindCounter
	case len(typeText) == 1 && typeText[0] == 'g':
		kind = KindGauge
	default:
		return nil, Sample{}, DropType
	}

	// Split <device>.<field> on the LAST dot so device ids may
	// themselves contain dots.
	dot := -1
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			dot = i
			break
		}
	}
	if dot <= 0 || dot == len(name)-1 {
		return nil, Sample{}, DropName
	}
	device, field := name[:dot], name[dot+1:]
	switch string(field) {
	case FieldEvents:
		if kind != KindCounter {
			return nil, Sample{}, DropType
		}
	case FieldCharge:
		if kind != KindGauge {
			return nil, Sample{}, DropType
		}
	default:
		return nil, Sample{}, DropName
	}
	for i := 0; i < len(device); i++ {
		// Printable ASCII without protocol delimiters; anything else
		// (control bytes, UTF-8 confusables, embedded ':'/'|') drops.
		c := device[i]
		if c <= ' ' || c >= 0x7f || c == ':' || c == '|' {
			return nil, Sample{}, DropName
		}
	}

	delta := false
	if kind == KindGauge && len(valueText) > 0 && (valueText[0] == '+' || valueText[0] == '-') {
		delta = true
	}
	v, err := strconv.ParseFloat(string(valueText), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, Sample{}, DropValue
	}
	if kind == KindCounter {
		if v < 0 {
			return nil, Sample{}, DropValue
		}
		v /= rate
	}
	return device, Sample{Kind: kind, Value: v, Delta: delta}, ""
}

func indexByte(b []byte, c byte) int {
	for i := 0; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

package ingest

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseLine throws hostile datagram lines at the parser:
// malformed names, missing type separators, huge/negative/NaN values,
// oversized lines, embedded delimiters and control bytes. The
// invariants: no panic, every line either parses into a well-formed
// sample or maps to exactly one structured drop reason, and accepted
// values are finite and in range.
func FuzzParseLine(f *testing.F) {
	seeds := []string{
		"sat-007.events:+3|c",
		"sat-007.charge:2.36|g",
		"n.charge:-0.5|g",
		"n.events:2|c|@0.5",
		"rack1.node2.events:1|c",
		"",
		":|",
		"n.events:NaN|c",
		"n.events:-9|c",
		"n.charge:+Inf|g",
		"n.events:1e400|c",
		"n.events:1|ms",
		"n.events:1|c|@0",
		".events:1|c",
		"events:1|c",
		"n.:1|c",
		"n.cpu:1|c",
		"a b.events:1|c",
		"n\x00.events:1|c",
		"ü.events:1|c",
		"n.events:" + strings.Repeat("9", MaxLineBytes) + "|c",
		strings.Repeat("a.events:1|c", 100),
		"n.events:0x1p10|c",
		"n.charge:1_000|g",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	valid := make(map[string]bool, len(DropReasons))
	for _, r := range DropReasons {
		valid[r] = true
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		s, reason := ParseLine(line)
		if reason != "" {
			if !valid[reason] {
				t.Fatalf("unstructured drop reason %q for %q", reason, line)
			}
			if s != (Sample{}) {
				t.Fatalf("dropped line %q returned non-zero sample %+v", line, s)
			}
			return
		}
		if s.Device == "" {
			t.Fatalf("accepted line %q with empty device", line)
		}
		for i := 0; i < len(s.Device); i++ {
			c := s.Device[i]
			if c <= ' ' || c >= 0x7f || c == ':' || c == '|' {
				t.Fatalf("accepted device %q with hostile byte %#x", s.Device, c)
			}
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			t.Fatalf("accepted non-finite value %g from %q", s.Value, line)
		}
		if s.Kind == KindCounter && (s.Value < 0 || s.Delta) {
			t.Fatalf("accepted counter %+v from %q", s, line)
		}
		if s.Kind != KindCounter && s.Kind != KindGauge {
			t.Fatalf("accepted unknown kind %d from %q", s.Kind, line)
		}
	})
}

// TestFuzzDropCountersIncrement covers the daemon half of the fuzz
// contract: hostile datagrams fed through Inject bump structured drop
// counters — every received line is accounted parsed or dropped.
func TestFuzzDropCountersIncrement(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Inject([]byte("bogus\nn.events:NaN|c\nn.events:1|ms\nuntracked.events:1|c\n" +
		"n.events:" + strings.Repeat("9", MaxLineBytes) + "|c"))
	st := d.Stats()
	if st.Lines != 5 {
		t.Fatalf("lines = %d, want 5", st.Lines)
	}
	for reason, want := range map[string]uint64{
		DropMalformed: 1,
		DropValue:     1,
		DropType:      1,
		DropOversize:  1,
	} {
		if st.Drops[reason] != want {
			t.Errorf("drops[%s] = %d, want %d", reason, st.Drops[reason], want)
		}
	}
	// The well-formed untracked line parses, then drops when it is
	// applied.
	waitStats(t, d, func(st Stats) bool { return st.Drops[DropUntracked] == 1 })
	st = d.Stats()
	if st.Parsed != 1 {
		t.Errorf("parsed = %d, want 1", st.Parsed)
	}
	var total uint64
	for _, n := range st.Drops {
		total += n
	}
	if st.Parsed+st.Drops[DropMalformed]+st.Drops[DropValue]+st.Drops[DropType]+st.Drops[DropOversize] != st.Lines {
		t.Errorf("line accounting: parsed %d + drops %v != lines %d", st.Parsed, st.Drops, st.Lines)
	}
	if total != 5 {
		t.Errorf("total drops = %d, want 5 (4 parse + 1 untracked)", total)
	}
}

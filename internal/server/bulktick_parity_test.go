package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestFleetBulkTickMatchesSequentialTicks pins /v1/fleet/bulk-tick to
// /v1/fleet/tick: two servers with the same sessions receive the same
// items, one as a single bulk call and one as sequential single ticks,
// and every bulk item's status and body must equal the single tick's
// byte for byte. The items cover a repeated device, a seq replay (with
// and without includeState), includeState on a fresh tick, an unknown
// device, an idle-evicted device and invalid device ids and reports.
// The pool has one worker so the items' order is the request order on
// every implementation of the bulk path.
func TestFleetBulkTickMatchesSequentialTicks(t *testing.T) {
	const ttl = time.Second
	cfg := Config{PoolSize: 1, FleetIdleTTL: ttl}
	bulkSrv, bulkBase := startServer(t, cfg)
	seqSrv, seqBase := startServer(t, cfg)
	register := func(base, id string) {
		t.Helper()
		if status, _, body := postJSON(t, base, "/v1/fleet/register", fleetRegisterBody(t, id)); status != http.StatusOK {
			t.Fatalf("register %s: %d %s", id, status, body)
		}
	}
	for _, base := range []string{bulkBase, seqBase} {
		register(base, "par-evicted")
	}
	time.Sleep(ttl + 50*time.Millisecond)
	for _, base := range []string{bulkBase, seqBase} {
		register(base, "par-a")
		register(base, "par-b")
	}
	ctx := context.Background()
	for _, srv := range []*Server{bulkSrv, seqSrv} {
		if err := srv.Fleet().SweepNow(ctx); err != nil {
			t.Fatal(err)
		}
		if st := srv.FleetStats(); st.SessionsLive != 2 || st.SessionsParked != 1 {
			t.Fatalf("after sweep: %d live, %d parked; want 2 and 1", st.SessionsLive, st.SessionsParked)
		}
	}

	rep := func(used, supplied float64) []SlotReport { return []SlotReport{{UsedJ: used, SuppliedJ: supplied}} }
	items := []FleetTickRequest{
		{DeviceID: "par-a", Slots: rep(9.5, 11)},
		{DeviceID: "par-b", Seq: 7, Slots: rep(8, 10), IncludeState: true},
		{DeviceID: "par-a", Slots: []SlotReport{{UsedJ: 30, SuppliedJ: 2}, {UsedJ: 1, SuppliedJ: 40}}},
		{DeviceID: "par-b", Seq: 7, Slots: rep(8, 10)},
		{DeviceID: "par-b", Seq: 7, Slots: rep(8, 10), IncludeState: true},
		{DeviceID: "par-ghost", Slots: rep(9.5, 11)},
		{DeviceID: "par-evicted", Slots: rep(9.5, 11)},
		{DeviceID: "", Slots: rep(9.5, 11)},
		{DeviceID: strings.Repeat("x", 300), Slots: rep(9.5, 11)},
		{DeviceID: "par-a", Slots: rep(-1, 11)},
		{DeviceID: "par-a", Slots: nil},
		{DeviceID: "par-b", Seq: 8, Slots: rep(12, 3)},
		{DeviceID: "par-a", Seq: 1, Slots: rep(4, 4), IncludeState: true},
	}

	want := make([]BatchItem, len(items))
	for i, item := range items {
		status, _, body := postJSON(t, seqBase, "/v1/fleet/tick", fleetTickBody(t, item))
		want[i] = BatchItem{Status: status, Body: bytes.TrimSuffix(body, []byte("\n"))}
	}
	bulk, err := canonicalJSON(FleetBulkTickRequest{Ticks: items})
	if err != nil {
		t.Fatal(err)
	}
	status, _, body := postJSON(t, bulkBase, "/v1/fleet/bulk-tick", bulk)
	if status != http.StatusOK {
		t.Fatalf("bulk-tick: %d %s", status, body)
	}
	var got FleetBulkTickResponse
	if err := decodeInto(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(got.Results), len(items))
	}
	seen := map[int]bool{}
	for i := range items {
		g, w := got.Results[i], want[i]
		seen[w.Status] = true
		if g.Status != w.Status || !bytes.Equal(g.Body, w.Body) {
			t.Errorf("item %d (%s): bulk %d %s\nsingle %d %s", i, items[i].DeviceID, g.Status, g.Body, w.Status, w.Body)
		}
	}
	for _, s := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone} {
		if !seen[s] {
			t.Errorf("no item answered %d; the item list no longer covers it", s)
		}
	}
	if b, s := bulkSrv.FleetStats(), seqSrv.FleetStats(); b != s {
		t.Errorf("fleet counters differ:\nbulk   %+v\nsingle %+v", b, s)
	}
	_, _, bulkDrain := postJSON(t, bulkBase, "/v1/fleet/drain", []byte(`{}`))
	_, _, seqDrain := postJSON(t, seqBase, "/v1/fleet/drain", []byte(`{}`))
	if !bytes.Equal(bulkDrain, seqDrain) {
		t.Errorf("drained checkpoints differ:\nbulk   %s\nsingle %s", bulkDrain, seqDrain)
	}
}

package wire

import (
	"encoding/hex"
	"fmt"
	"os"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/obs"
)

// goldenVectors is the pinned frame set: known messages whose exact
// byte layout must never drift — the handshake bodies with their token,
// scope and refusal error, a scope refusal, two post-handshake
// requests, and a Stats response with one row of every kind it carries.
// Regenerate (after a deliberate layout change) with
//
//	WIRE_GOLDEN_DUMP=1 go test ./internal/wire -run TestGoldenVectors -v
func goldenVectors() []struct {
	name string
	typ  byte
	id   uint32
	msg  any
} {
	return []struct {
		name string
		typ  byte
		id   uint32
		msg  any
	}{
		{"hello", THello, 1, Hello{Min: 1, Max: 2, Token: "jitsu-admin"}},
		{"hello-ack", THelloAck, 1, HelloAck{Version: 2, Scope: api.ScopeAdmin}},
		{"hello-ack-refused", THelloAck, 1, HelloAck{Version: 0,
			Err: api.Errf("hello", api.CodeUnauthorized, "unknown capability token")}},
		{"unauthorized-resp", TMigrateResp, 7, api.MigrateResponse{
			Err: api.Errf(api.VerbMigrate, api.CodeUnauthorized,
				"scope read-only does not cover migrate (needs admin)")}},
		{"activate-req", TActivateReq, 3, ActivateReq{Name: "alice.family.name", WantReady: true}},
		{"watch-req", TWatchReq, 6, WatchReq{Every: 10 * time.Second}},
		{"stats-resp", TStatsResp, 9, api.StatsResponse{
			Services: []api.ServiceStats{{Name: "alice.family.name", State: core.StateRunning,
				Counters: core.Counters{Launches: 2, ColdStarts: 1, Reaps: 1}}},
			Triggers: []api.TriggerStats{{Name: "dns", Fired: 4}},
			Registries: []obs.Snapshot{{Name: "board0",
				Counters: []obs.CounterSnap{{Name: "activation.launches", Value: 2}},
				Gauges:   []obs.GaugeSnap{{Name: "dns.epoch", Value: 3}}}},
		}},
	}
}

// TestGoldenVectors pins the frame layouts bit-for-bit.
func TestGoldenVectors(t *testing.T) {
	want := map[string]string{
		"hello":             "0000001702010000000100010002000b6a697473752d61646d696e",
		"hello-ack":         "0000000a02020000000100020300",
		"hello-ack-refused": "0000002c02020000000100000001000568656c6c6f070018756e6b6e6f776e206361706162696c69747920746f6b656e",
		"unauthorized-resp": "00000048023400000007000100076d69677261746507003473636f706520726561642d6f6e6c7920646f6573206e6f7420636f766572206d69677261746520286e656564732061646d696e29",
		"activate-req":      "0000001b0211000000030011616c6963652e66616d696c792e6e616d650001",
		"watch-req":         "0000000e021a0000000600000002540be400",
		"stats-resp":        "000000aa02390000000900010011616c6963652e66616d696c792e6e616d65020000000000000002000000000000000100000000000000000000000000000000000000000000000100000000000000000000000000000000000000000000000000010003646e73000000000000000400010006626f617264300001001361637469766174696f6e2e6c61756e63686573000000000000000200010009646e732e65706f6368000000000000000300",
	}
	for _, v := range goldenVectors() {
		buf, err := Append(nil, Version, v.typ, v.id, v.msg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got := hex.EncodeToString(buf)
		if os.Getenv("WIRE_GOLDEN_DUMP") != "" {
			fmt.Printf("%q: %q,\n", v.name, got)
			continue
		}
		if got != want[v.name] {
			t.Errorf("%s frame drifted:\n got  %s\n want %s", v.name, got, want[v.name])
		}
	}
}

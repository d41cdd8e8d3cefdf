package wire

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
)

// allMessages is one representative message per frame type, with every
// field populated — the round-trip matrix.
func allMessages() []struct {
	typ byte
	msg any
} {
	cfg := core.ServiceConfig{
		Name:        "bob.family.name",
		IP:          netstack.IPv4(10, 0, 0, 21),
		Port:        443,
		Image:       unikernel.Image{Name: "bob", Kind: xen.GuestLinux, MemMiB: 64, BinaryMiB: 20.5},
		TTL:         120,
		IdleTimeout: 45 * time.Second,
		StateMiB:    12,
	}
	cp := &core.Checkpoint{
		Image:    unikernel.Image{Name: "bob", MemMiB: 16, BinaryMiB: 1},
		StateMiB: 4,
	}
	stats := api.StatsResponse{
		Services: []api.ServiceStats{{
			Name: "bob.family.name", State: core.StateRunning,
			Counters: core.Counters{Launches: 3, ColdStarts: 1, Handoffs: 2, ServFails: 1,
				Reaps: 1, Restores: 2, DiskRestores: 1, Demotions: 1},
		}},
		Triggers: []api.TriggerStats{{Name: "dns", Fired: 9}},
		Registries: []obs.Snapshot{{
			Name:     "cluster",
			Counters: []obs.CounterSnap{{Name: "sched.placed", Value: 7}},
			Gauges:   []obs.GaugeSnap{{Name: "members.alive", Value: 3}},
		}},
	}
	return []struct {
		typ byte
		msg any
	}{
		{THello, Hello{Min: 1, Max: 3, Token: "jitsu-ops"}},
		{THelloAck, HelloAck{Version: Version, Scope: api.ScopeOperator}},
		{TRegisterReq, api.RegisterRequest{Config: cfg, MinWarm: 2, Policy: "round-robin"}},
		{TActivateReq, ActivateReq{Name: "bob.family.name", Speculative: true, WantReady: true}},
		{TCheckpointReq, api.CheckpointRequest{Name: "bob.family.name", Board: api.OnBoard(2)}},
		{TRestoreReq, RestoreReq{Name: "bob.family.name", Checkpoint: cp,
			Board: api.OnBoard(1), ToDisk: true, WantReady: true}},
		{TMigrateReq, MigrateReq{Name: "bob.family.name", From: api.OnBoard(0),
			To: api.OnBoard(2), WantDone: true}},
		{TTransferReq, TransferReq{Config: cfg, MinWarm: 1, Policy: "first-fit",
			Checkpoint: cp, ToDisk: true, WantReady: true}},
		{TDemoteReq, api.DemoteRequest{Name: "bob.family.name", Board: api.AnyBoard}},
		{TPromoteReq, PromoteReq{Name: "bob.family.name", Board: api.OnBoard(1), WantReady: true}},
		{TStopReq, api.StopRequest{Name: "bob.family.name"}},
		{TStatsReq, api.StatsRequest{}},
		{TWatchReq, WatchReq{Every: 500 * time.Millisecond}},
		{TWatchCancel, struct{}{}},

		{TRegisterResp, api.RegisterResponse{Name: "bob.family.name"}},
		{TActivateResp, api.ActivateResponse{IP: netstack.IPv4(10, 0, 0, 21),
			Board: 2, State: core.StateWarmMemory}},
		{TCheckpointResp, api.CheckpointResponse{Checkpoint: cp, Board: 1}},
		{TRestoreResp, api.RestoreResponse{}},
		{TMigrateResp, api.MigrateResponse{Started: true}},
		{TTransferResp, api.TransferResponse{Board: -1}},
		{TDemoteResp, api.DemoteResponse{Demoted: 2}},
		{TPromoteResp, api.PromoteResponse{Board: 0}},
		{TStopResp, api.StopResponse{Stopped: 3}},
		{TStatsResp, stats},
		{TWatchResp, WatchResp{}},

		{TReadyEvent, ReadyEvent{Err: api.Errf(api.VerbActivate, api.CodeNoMemory, "image does not fit")}},
		{TDoneEvent, DoneEvent{OK: false}},
		{TStatsEvent, stats},
	}
}

// TestRoundTripAllVerbs encodes and re-decodes one fully-populated
// message per frame type.
func TestRoundTripAllVerbs(t *testing.T) {
	for _, m := range allMessages() {
		buf, err := Append(nil, Version, m.typ, 42, m.msg)
		if err != nil {
			t.Fatalf("type 0x%02x: encode: %v", m.typ, err)
		}
		ver, typ, id, got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("type 0x%02x: decode: %v", m.typ, err)
		}
		if ver != Version || typ != m.typ || id != 42 || n != len(buf) {
			t.Fatalf("type 0x%02x: got ver=%d typ=0x%02x id=%d n=%d (len %d)",
				m.typ, ver, typ, id, n, len(buf))
		}
		want := m.msg
		if m.typ == TStatsReq {
			want = api.StatsRequest{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("type 0x%02x round trip:\n got  %#v\n want %#v", m.typ, got, want)
		}
	}
}

// TestRoundTripV2Handshake covers the handshake's credential fields: the
// Hello token and the HelloAck scope and refusal.
func TestRoundTripV2Handshake(t *testing.T) {
	cases := []struct {
		typ byte
		msg any
	}{
		{THello, Hello{Min: 1, Max: 2, Token: "jitsu-ops"}},
		{THelloAck, HelloAck{Version: 2, Scope: api.ScopeOperator}},
		{THelloAck, HelloAck{Version: 0, Scope: api.ScopeNone,
			Err: api.Errf("hello", api.CodeUnauthorized, "unknown capability token")}},
	}
	for _, m := range cases {
		buf, err := Append(nil, Version, m.typ, 1, m.msg)
		if err != nil {
			t.Fatalf("type 0x%02x: %v", m.typ, err)
		}
		_, _, _, got, _, err := Decode(buf)
		if err != nil {
			t.Fatalf("type 0x%02x: %v", m.typ, err)
		}
		if !reflect.DeepEqual(got, m.msg) {
			t.Errorf("type 0x%02x round trip:\n got  %#v\n want %#v", m.typ, got, m.msg)
		}
	}
}

// TestRoundTripVerbByCode is the full verb × code matrix: every
// ControlPlane verb's response frame carries every typed error code
// (including CodeUnauthorized) across the wire intact.
func TestRoundTripVerbByCode(t *testing.T) {
	// Each verb's response carrier: how to wrap an error into the
	// verb's own response struct and how to unwrap it after decode.
	carriers := map[string]struct {
		typ  byte
		wrap func(*api.Error) any
		err  func(any) *api.Error
	}{
		api.VerbRegister: {TRegisterResp,
			func(e *api.Error) any { return api.RegisterResponse{Err: e} },
			func(m any) *api.Error { return m.(api.RegisterResponse).Err }},
		api.VerbActivate: {TActivateResp,
			func(e *api.Error) any { return api.ActivateResponse{Err: e} },
			func(m any) *api.Error { return m.(api.ActivateResponse).Err }},
		api.VerbCheckpoint: {TCheckpointResp,
			func(e *api.Error) any { return api.CheckpointResponse{Err: e} },
			func(m any) *api.Error { return m.(api.CheckpointResponse).Err }},
		api.VerbRestore: {TRestoreResp,
			func(e *api.Error) any { return api.RestoreResponse{Err: e} },
			func(m any) *api.Error { return m.(api.RestoreResponse).Err }},
		api.VerbMigrate: {TMigrateResp,
			func(e *api.Error) any { return api.MigrateResponse{Err: e} },
			func(m any) *api.Error { return m.(api.MigrateResponse).Err }},
		api.VerbTransfer: {TTransferResp,
			func(e *api.Error) any { return api.TransferResponse{Err: e} },
			func(m any) *api.Error { return m.(api.TransferResponse).Err }},
		api.VerbDemote: {TDemoteResp,
			func(e *api.Error) any { return api.DemoteResponse{Err: e} },
			func(m any) *api.Error { return m.(api.DemoteResponse).Err }},
		api.VerbPromote: {TPromoteResp,
			func(e *api.Error) any { return api.PromoteResponse{Err: e} },
			func(m any) *api.Error { return m.(api.PromoteResponse).Err }},
		api.VerbStop: {TStopResp,
			func(e *api.Error) any { return api.StopResponse{Err: e} },
			func(m any) *api.Error { return m.(api.StopResponse).Err }},
		api.VerbStats: {TStatsResp,
			func(e *api.Error) any { return api.StatsResponse{Err: e} },
			func(m any) *api.Error { return m.(api.StatsResponse).Err }},
		api.VerbWatchStats: {TWatchResp,
			func(e *api.Error) any { return WatchResp{Err: e} },
			func(m any) *api.Error { return m.(WatchResp).Err }},
	}
	if len(carriers) != len(api.Verbs()) {
		t.Fatalf("carrier table covers %d verbs, api declares %d", len(carriers), len(api.Verbs()))
	}
	for _, verb := range api.Verbs() {
		car, ok := carriers[verb]
		if !ok {
			t.Fatalf("no response carrier for verb %q", verb)
		}
		for _, code := range api.Codes() {
			in := api.Errf(verb, code, "detail for %s", code)
			buf, err := Append(nil, Version, car.typ, 7, car.wrap(in))
			if err != nil {
				t.Fatalf("%s/%s: %v", verb, code, err)
			}
			_, _, _, got, _, err := Decode(buf)
			if err != nil {
				t.Fatalf("%s/%s: %v", verb, code, err)
			}
			out := car.err(got)
			if out == nil || out.Code != code || out.Op != verb ||
				out.Detail != in.Detail {
				t.Errorf("%s/%s did not survive: %#v", verb, code, out)
			}
		}
	}
}

// TestDecodeRejections: every malformed input is refused with the
// right sentinel, and truncation at any byte is resumable (ErrShort),
// never a misparse.
func TestDecodeRejections(t *testing.T) {
	valid, err := Append(nil, Version, TStopReq, 9, api.StopRequest{Name: "alice.family.name"})
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(valid); cut++ {
		if _, _, _, _, _, err := Decode(valid[:cut]); !errors.Is(err, ErrShort) {
			t.Fatalf("truncation at %d/%d: got %v, want ErrShort", cut, len(valid), err)
		}
	}

	oversize := append([]byte(nil), valid...)
	oversize[0], oversize[1], oversize[2], oversize[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, _, _, err := Decode(oversize); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize length: got %v, want ErrFrameTooBig", err)
	}

	shortHdr := append([]byte(nil), valid...)
	shortHdr[3] = 2 // length 2 cannot even hold ver+typ+id
	if _, _, _, _, _, err := Decode(shortHdr); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("sub-header length: got %v, want ErrBadFrame", err)
	}

	// Version 1 is retired: its frames are refused at the header, like
	// any version this package does not speak.
	for _, ver := range []byte{1, 99} {
		badVer := append([]byte(nil), valid...)
		badVer[4] = ver
		if _, _, _, _, _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("header version %d: got %v, want ErrBadVersion", ver, err)
		}
	}

	badType := append([]byte(nil), valid...)
	badType[5] = 0xEE
	if _, _, _, _, _, err := Decode(badType); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type: got %v, want ErrUnknownType", err)
	}

	// Body one byte short of its announced string length.
	clipped := append([]byte(nil), valid[:len(valid)-1]...)
	clipped[3] -= 1
	if _, _, _, _, _, err := Decode(clipped); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("clipped body: got %v, want ErrBadFrame", err)
	}

	// Trailing garbage inside the announced frame length.
	padded, err := Append(nil, Version, TStopReq, 9, api.StopRequest{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	padded = append(padded, 0x00)
	padded[3] += 1
	if _, _, _, _, _, err := Decode(padded); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("padded body: got %v, want ErrBadFrame", err)
	}
}

// TestEncodeRejections: unencodable messages fail loudly.
func TestEncodeRejections(t *testing.T) {
	if _, err := Append(nil, Version, 0xEE, 1, nil); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("unknown type: got %v, want ErrUnknownType", err)
	}
	long := make([]byte, 1<<17)
	if _, err := Append(nil, Version, TStopReq, 1, api.StopRequest{Name: string(long)}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("overlong string: got %v, want ErrBadFrame", err)
	}
	for _, ver := range []byte{0, 1, Version + 1, 99} {
		if _, err := Append(nil, ver, TStopReq, 1, api.StopRequest{Name: "a"}); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("frame version %d: got %v, want ErrBadVersion", ver, err)
		}
	}
}

package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"jitsu/internal/api"
)

// FuzzWireCodec feeds arbitrary bytes to the frame decoder: it must
// never panic, and whatever it accepts must survive a canonical
// re-encode / re-decode round trip — the re-encoded frame is a fixed
// point (encode∘decode on it is byte-identity). Every frame type is
// seeded whole and one byte short. The comparison is on bytes, not
// decoded structs: inputs may be non-canonical (a bool byte of 2) and
// may carry NaN floats, which compare unequal to themselves while
// still round-tripping bit-exactly.
func FuzzWireCodec(f *testing.F) {
	for _, m := range allMessages() {
		buf, err := Append(nil, Version, m.typ, 77, m.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	// The handshake's credential bodies: token, scope, refusal error.
	hello, _ := Append(nil, Version, THello, 1, Hello{Min: 1, Max: 2, Token: "jitsu-admin"})
	f.Add(hello)
	ack, _ := Append(nil, Version, THelloAck, 1, HelloAck{Version: 2, Scope: api.ScopeOperator})
	f.Add(ack)
	refusal, _ := Append(nil, Version, THelloAck, 1, HelloAck{Version: 0,
		Err: api.Errf("hello", api.CodeUnauthorized, "unknown capability token")})
	f.Add(refusal)
	bad, _ := Append(nil, Version, TStopReq, 9, api.StopRequest{Name: "alice"})
	f.Add(bad[:len(bad)-2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Two stats frames of different shapes: the session decoder sizes
	// each one's arrays from the frame before it. Between them a refusal,
	// whose error the stream's buffer must not carry into the next.
	f.Add(mustAppend(f, shapedStats(5, 20)))
	f.Add(mustAppend(f, api.StatsResponse{Err: api.Errf(api.VerbStats, api.CodeUnauthorized, "read-only")}))
	f.Add(mustAppend(f, shapedStats(2, 4)))

	// One decoder for the whole run, as a session has: whatever names
	// earlier inputs left in its table, it must answer like Decode. And
	// one stats buffer, as a stream has: every stats body is decoded a
	// second time into it, dirty from the inputs before, and must come
	// out as the fresh decode did, with nothing of theirs left.
	var session Decoder
	var stream api.StatsBuf
	f.Fuzz(func(t *testing.T, data []byte) {
		ver, typ, id, msg, n, err := Decode(data)
		sameDecode(t, &session, data, ver, typ, id, msg, n, err)
		if _, _, _, body, _, splitErr := split(data); splitErr == nil && (typ == TStatsResp || typ == TStatsEvent) {
			if errInto := session.statsInto(body, &stream); fmt.Sprint(errInto) != fmt.Sprint(err) {
				t.Fatalf("decoding into a used buffer: err %v, fresh decode %v", errInto, err)
			}
			if err == nil && !reflect.DeepEqual(stream.Resp, msg) {
				t.Fatalf("decoded into a used buffer:\n %+v\nfresh:\n %+v", stream.Resp, msg)
			}
		}
		if err != nil {
			return
		}
		if ver != Version {
			t.Fatalf("accepted frame version %d, want %d", ver, Version)
		}
		if n < headerLen || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		reenc, err := Append(nil, ver, typ, id, msg)
		if err != nil {
			t.Fatalf("decoded v%d frame type 0x%02x failed to re-encode: %v", ver, typ, err)
		}
		ver2, typ2, id2, msg2, _, err := Decode(reenc)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v", err)
		}
		if ver2 != ver || typ2 != typ || id2 != id {
			t.Fatalf("round trip moved the header: v%d 0x%02x/%d vs v%d 0x%02x/%d",
				ver, typ, id, ver2, typ2, id2)
		}
		reenc2, err := Append(nil, ver2, typ2, id2, msg2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(reenc, reenc2) {
			t.Fatalf("canonical form is not a fixed point for v%d type 0x%02x:\n%x\nvs\n%x", ver, typ, reenc, reenc2)
		}
	})
}

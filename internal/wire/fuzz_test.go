package wire

import (
	"bytes"
	"testing"

	"jitsu/internal/api"
)

// FuzzWireCodec feeds arbitrary bytes to the frame decoder: it must
// never panic, and whatever it accepts must survive a canonical
// re-encode / re-decode round trip — the re-encoded frame is a fixed
// point (encode∘decode on it is byte-identity). Both protocol
// framings are seeded and exercised: the re-encode always uses the
// version the decoder reported, so V1 and V2 canonical forms are each
// fixed points of their own framing. The comparison is on bytes, not
// decoded structs: inputs may be non-canonical (a bool byte of 2) and
// may carry NaN floats, which compare unequal to themselves while
// still round-tripping bit-exactly.
func FuzzWireCodec(f *testing.F) {
	for _, ver := range []byte{V1, V2} {
		for _, m := range allMessages() {
			buf, err := Append(nil, ver, m.typ, 77, m.msg)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
		}
	}
	// The V2-only handshake bodies: token, scope, refusal error.
	v2hello, _ := Append(nil, V2, THello, 1, Hello{Min: 1, Max: 2, Token: "jitsu-admin"})
	f.Add(v2hello)
	v2ack, _ := Append(nil, V2, THelloAck, 1, HelloAck{Version: 2, Scope: api.ScopeOperator})
	f.Add(v2ack)
	v2refusal, _ := Append(nil, V2, THelloAck, 1, HelloAck{Version: 0,
		Err: api.Errf("hello", api.CodeUnauthorized, "unknown capability token")})
	f.Add(v2refusal)
	bad, _ := Append(nil, V1, TStopReq, 9, api.StopRequest{Name: "alice"})
	f.Add(bad[:len(bad)-2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	// One decoder for the whole run, as a session has: whatever names
	// earlier inputs left in its table, it must answer like Decode.
	var session Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		ver, typ, id, msg, n, err := Decode(data)
		sameDecode(t, &session, data, ver, typ, id, msg, n, err)
		if err != nil {
			return
		}
		if ver < MinVersion || ver > MaxVersion {
			t.Fatalf("accepted frame version %d outside [%d,%d]", ver, MinVersion, MaxVersion)
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

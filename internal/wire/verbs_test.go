package wire

import (
	"reflect"
	"testing"

	"jitsu/internal/api"
)

// TestVerbTableCoversTheControlPlane holds the table to api's own: one
// row per api.Verbs() name, in interface order, which is frame-type
// order; a refusal built by a row is the message its response frame
// carries (a mismatch would panic in Append) and reads back through the
// row's errOf; and a session is admitted to a verb exactly when its
// scope reaches api.RequiredScope — there is no second scope table.
func TestVerbTableCoversTheControlPlane(t *testing.T) {
	names := api.Verbs()
	if len(names) != len(verbs) {
		t.Fatalf("api lists %d verbs, the table has %d rows", len(names), len(verbs))
	}
	refusal := api.Errf("probe", api.CodeUnauthorized, "refused")
	for i, v := range verbs {
		if v.name != names[i] {
			t.Fatalf("row %d (request frame 0x%02x) is %q, api.Verbs()[%d] is %q", i, TRegisterReq+i, v.name, i, names[i])
		}
		if v.req == nil || v.resp == nil || v.refuse == nil || v.errOf == nil || v.handle == nil {
			t.Fatalf("%s: row has an empty column: %+v", v.name, v)
		}
		typ := byte(TRegisterReq + i + 0x20) // responses pair with requests by offset
		frame, err := Append(nil, Version, typ, 7, v.refuse(refusal))
		if err != nil {
			t.Fatalf("%s: refusal does not encode as frame 0x%02x: %v", v.name, typ, err)
		}
		_, _, _, got, _, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: refusal frame does not decode: %v", v.name, err)
		}
		if e := v.errOf(got); !reflect.DeepEqual(e, refusal) {
			t.Errorf("%s: refusal reads back as %v, want %v", v.name, e, refusal)
		}
		if e := v.errOf(v.refuse(nil)); e != nil {
			t.Errorf("%s: a response without an error reads back %v", v.name, e)
		}
		for _, scope := range []api.Scope{api.ScopeNone, api.ScopeReadOnly, api.ScopeOperator, api.ScopeAdmin} {
			sc := &srvConn{s: &Server{}, scope: scope}
			e := sc.admit(v.name)
			if want := scope.Allows(api.RequiredScope(v.name)); (e == nil) != want {
				t.Errorf("%s at scope %s: admitted=%v, api.RequiredScope says %v", v.name, scope, e == nil, want)
			}
			if e != nil && (e.Code != api.CodeUnauthorized || e.Op != v.name || sc.s.Unauthorized != 1) {
				t.Errorf("%s at scope %s: refusal %v, counted %d", v.name, scope, e, sc.s.Unauthorized)
			}
		}
	}
}

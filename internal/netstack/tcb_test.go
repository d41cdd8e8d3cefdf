package netstack

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The Synjitsu handoff codec is held to the one it replaced, kept here
// as the reference: the bytes written to XenStore must not change, and
// the two parsers must accept and reject the same strings.

// refEncode is Encode as it was: a strings.Builder and eleven Fprintf.
func refEncode(t *TCB) string {
	var b strings.Builder
	b.WriteByte('(')
	field := func(k, v string) { fmt.Fprintf(&b, "(%s %s)", k, v) }
	field("state", t.State)
	field("src", t.RemoteIP.String()) // "src" is the *client*, as in Fig 7
	field("sport", strconv.Itoa(int(t.RemotePort)))
	field("dst", t.LocalIP.String())
	field("dport", strconv.Itoa(int(t.LocalPort)))
	field("iss", strconv.FormatUint(uint64(t.ISS), 10))
	field("irs", strconv.FormatUint(uint64(t.IRS), 10))
	field("snd-nxt", strconv.FormatUint(uint64(t.SndNxt), 10))
	field("rcv-nxt", strconv.FormatUint(uint64(t.RcvNxt), 10))
	field("wnd", strconv.Itoa(int(t.Window)))
	if len(t.Buffered) > 0 {
		field("buf", hex.EncodeToString(t.Buffered))
	}
	b.WriteByte(')')
	return b.String()
}

// refParseTCB is ParseTCB as it was: strings.Fields on every pair.
func refParseTCB(s string) (*TCB, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return nil, ErrBadTCB
	}
	inner := s[1 : len(s)-1]
	t := &TCB{}
	for len(inner) > 0 {
		inner = strings.TrimSpace(inner)
		if inner == "" {
			break
		}
		if inner[0] != '(' {
			return nil, ErrBadTCB
		}
		end := strings.IndexByte(inner, ')')
		if end < 0 {
			return nil, ErrBadTCB
		}
		pair := strings.Fields(inner[1:end])
		inner = inner[end+1:]
		if len(pair) != 2 {
			return nil, ErrBadTCB
		}
		k, v := pair[0], pair[1]
		switch k {
		case "state":
			t.State = v
		case "src":
			ip, ok := ParseIP(v)
			if !ok {
				return nil, ErrBadTCB
			}
			t.RemoteIP = ip
		case "dst":
			ip, ok := ParseIP(v)
			if !ok {
				return nil, ErrBadTCB
			}
			t.LocalIP = ip
		case "sport", "dport", "wnd":
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return nil, ErrBadTCB
			}
			switch k {
			case "sport":
				t.RemotePort = uint16(n)
			case "dport":
				t.LocalPort = uint16(n)
			case "wnd":
				t.Window = uint16(n)
			}
		case "iss", "irs", "snd-nxt", "rcv-nxt":
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return nil, ErrBadTCB
			}
			switch k {
			case "iss":
				t.ISS = uint32(n)
			case "irs":
				t.IRS = uint32(n)
			case "snd-nxt":
				t.SndNxt = uint32(n)
			case "rcv-nxt":
				t.RcvNxt = uint32(n)
			}
		case "buf":
			buf, err := hex.DecodeString(v)
			if err != nil {
				return nil, ErrBadTCB
			}
			t.Buffered = buf
		default:
			// Unknown fields are ignored for forward compatibility.
		}
	}
	if t.State == "" {
		return nil, ErrBadTCB
	}
	return t, nil
}

// seededTCB draws a control block from rng: every field at random, the
// occasional zero address or port, Buffered empty or up to 300 bytes.
func seededTCB(rng *rand.Rand) *TCB {
	t := &TCB{
		State:      []string{TCBStateSYNACK, TCBStateEstablished, "SYN"}[rng.Intn(3)],
		LocalPort:  uint16(rng.Uint32()),
		RemotePort: uint16(rng.Uint32()),
		ISS:        rng.Uint32(),
		IRS:        rng.Uint32(),
		SndNxt:     rng.Uint32(),
		RcvNxt:     rng.Uint32(),
		Window:     uint16(rng.Uint32()),
	}
	rng.Read(t.LocalIP[:])
	rng.Read(t.RemoteIP[:])
	if rng.Intn(8) == 0 {
		t.LocalIP, t.LocalPort, t.ISS = IP{}, 0, 0
	}
	if n := rng.Intn(302) - 1; n > 0 {
		t.Buffered = make([]byte, n)
		rng.Read(t.Buffered)
	}
	return t
}

func TestTCBCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		tcb := seededTCB(rng)
		enc := tcb.Encode()
		if want := refEncode(tcb); enc != want {
			t.Fatalf("Encode(%+v)\n got %s\nwant %s", tcb, enc, want)
		}
		got, err := ParseTCB(enc)
		want, wantErr := refParseTCB(enc)
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, tcb) {
			t.Fatalf("ParseTCB(%s)\n got %+v, %v\n ref %+v, %v\nfrom %+v", enc, got, err, want, wantErr, tcb)
		}
		if ip := tcb.LocalIP; ip.String() != fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3]) {
			t.Fatalf("IP.String() = %s for %v", ip.String(), [4]byte(ip))
		}
	}
}

func TestTCBEncodeAllocs(t *testing.T) {
	tcb := seededTCB(rand.New(rand.NewSource(1)))
	tcb.Buffered = make([]byte, 300)
	if got := testing.AllocsPerRun(100, func() { tcb.Encode() }); got > 2 {
		t.Errorf("Encode: %v allocs, want the buffer and the string", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = tcb.LocalIP.String() }); got > 1 {
		t.Errorf("IP.String: %v allocs, want 1", got)
	}
}

// FuzzTCBCodec feeds arbitrary strings to the parser: it never panics,
// it agrees with the reference parser on accept or reject and on every
// field, and what it accepts survives Encode and a second parse.
func FuzzTCBCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(seededTCB(rng).Encode())
	}
	for _, s := range []string{"", "()", "(state)", "((state SYN)(future stuff))", "( ( state\tSYN ) (wnd 1 2))",
		"((state ESTABLISHED)(sport 99999))", "((state S)(buf zz))", "((state S)(src 1.2.3))", "((state \u00a0S))"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseTCB(s)
		want, wantErr := refParseTCB(s)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseTCB(%q) = %+v, %v; reference %+v, %v", s, got, err, want, wantErr)
		}
		if err != nil {
			return
		}
		enc := got.Encode()
		if ref := refEncode(got); enc != ref {
			t.Fatalf("Encode(%+v)\n got %s\nwant %s", got, enc, ref)
		}
		again, err := ParseTCB(enc)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("parse(encode(%+v)) = %+v, %v", got, again, err)
		}
	})
}

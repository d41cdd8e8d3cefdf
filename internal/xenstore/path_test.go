package xenstore

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in    string
		want  []string
		valid bool
	}{
		{"/", nil, true},
		{"/local", []string{"local"}, true},
		{"/local/domain/3", []string{"local", "domain", "3"}, true},
		{"/local/domain/3/", []string{"local", "domain", "3"}, true},
		{"/conduit/http_server/listen/conn-1", []string{"conduit", "http_server", "listen", "conn-1"}, true},
		{"/a.b/c:d/e@f", []string{"a.b", "c:d", "e@f"}, true},
		{"", nil, false},
		{"relative/path", nil, false},
		{"//double", nil, false},
		{"/with space", nil, false},
		{"/with\x00nul", nil, false},
		{"/" + strings.Repeat("x", MaxPathLen), nil, false},
	}
	for _, c := range cases {
		got, err := SplitPath(c.in)
		if c.valid && err != nil {
			t.Errorf("SplitPath(%q) unexpected error %v", c.in, err)
			continue
		}
		if !c.valid {
			if err == nil {
				t.Errorf("SplitPath(%q) should fail", c.in)
			}
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitPath(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestJoinParentBasename(t *testing.T) {
	if got := ParentPath("/local/domain/3"); got != "/local/domain" {
		t.Errorf("ParentPath = %q", got)
	}
	if got := ParentPath("/local"); got != "/" {
		t.Errorf("ParentPath top = %q", got)
	}
	if got := Basename("/local/domain/3"); got != "3" {
		t.Errorf("Basename = %q", got)
	}
}

func TestIsPrefix(t *testing.T) {
	cases := []struct {
		w, p string
		want bool
	}{
		{"/", "/anything/at/all", true},
		{"/local", "/local", true},
		{"/local", "/local/domain", true},
		{"/local", "/localhost", false},
		{"/local/domain", "/local", false},
		{"/conduit/http", "/conduit/http_server", false},
	}
	for _, c := range cases {
		if got := IsPrefix(c.w, c.p); got != c.want {
			t.Errorf("IsPrefix(%q, %q) = %v, want %v", c.w, c.p, got, c.want)
		}
	}
}

// Property: SplitPath then joining with "/" round-trips for valid
// canonical paths.
func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(seed []uint8) bool {
		// Construct a valid path from the seed.
		comps := []string{}
		for _, b := range seed {
			comps = append(comps, string('a'+rune(b%26)))
			if len(comps) == 8 {
				break
			}
		}
		if len(comps) == 0 {
			return true
		}
		p := "/" + strings.Join(comps, "/")
		parts, err := SplitPath(p)
		if err != nil {
			return false
		}
		return "/"+strings.Join(parts, "/") == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: IsPrefix(w, p) implies IsPrefix(parent(w), p).
func TestIsPrefixTransitiveToParent(t *testing.T) {
	w := "/a/b/c"
	p := "/a/b/c/d/e"
	if !IsPrefix(w, p) || !IsPrefix(ParentPath(w), p) {
		t.Fatal("prefix property violated")
	}
}

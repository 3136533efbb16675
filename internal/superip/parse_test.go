package superip

import (
	"strings"
	"testing"
)

// TestParse walks every nucleus kind at -1, 0 and its smallest valid size,
// plus the family, level and symmetric-variant checks: a bad specification
// must come back as an error naming the problem, never as a panic.
func TestParse(t *testing.T) {
	cases := []struct {
		family  string
		l       int
		nucleus string
		sym     bool
		wantErr string // empty: accepted
		name    string // Net.Name of an accepted spec
	}{
		{"HSN", 2, "Q-1", false, "Q-1", ""},
		{"HSN", 2, "Q0", false, "Q0", ""},
		{"HSN", 2, "Q1", false, "", "HSN(2;Q1)"},
		{"HSN", 2, "FQ-2", false, "FQ-2", ""},
		{"HSN", 2, "FQ-1", false, "FQ-1", ""},
		{"HSN", 2, "FQ0", false, "FQ0", ""},
		{"HSN", 2, "FQ1", false, "", "HSN(2;FQ1)"},
		{"HSN", 2, "K-1", false, "K-1", ""},
		{"HSN", 2, "K0", false, "K0", ""},
		{"HSN", 2, "K1", false, "K1", ""},
		{"HSN", 2, "K2", false, "", "HSN(2;K2)"},
		{"HSN", 2, "S-1", false, "S-1", ""},
		{"HSN", 2, "S0", false, "S0", ""},
		{"HSN", 2, "S1", false, "S1", ""},
		{"HSN", 2, "S2", false, "", "HSN(2;S2)"},
		{"HSN", 2, "SE-1", false, "SE-1", ""},
		{"HSN", 2, "SE0", false, "SE0", ""},
		{"HSN", 2, "SE1", false, "", "HSN(2;SE1)"},
		{"HSN", 2, "P", false, "", "HSN(2;P)"},
		{"HSN", 2, "Q", false, "bad nucleus", ""},
		{"HSN", 2, "X3", false, "unknown nucleus kind", ""},
		{"HSN", 2, "-3", false, "bad nucleus", ""},
		{"HSN", 2, "Q2", true, "", "sym-HSN(2;Q2)"},
		{"SFN", 3, "S3", true, "", "sym-SFN(3;S3)"},
		{"HSN", 2, "K4", true, "symmetric variant", ""},
		{"HSN", 2, "SE3", true, "symmetric variant", ""},
		{"CN", 2, "P", true, "symmetric variant", ""},
		{"RCC", 2, "Q2", true, "symmetric variant", ""},
		{"RCC", 3, "Q2", false, "", "HSN(3;K4)"},
		{"dirCN", 3, "Q2", false, "", "dir-CN(3;Q2)"},
		{"ringCN", 1, "Q2", false, "l >= 2", ""},
		{"dirCN", 0, "Q2", false, "l >= 2", ""},
		{"HSN", -1, "Q2", false, "l >= 2", ""},
		{"torus", 2, "Q2", false, "unknown super-IP family", ""},
	}
	for _, c := range cases {
		net, err := Parse(c.family, c.l, c.nucleus, c.sym)
		label := c.family + "/" + c.nucleus
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s l=%d sym=%v: rejected: %v", label, c.l, c.sym, err)
		case c.wantErr == "" && net.Name() != c.name:
			t.Errorf("%s l=%d sym=%v: built %s, want %s", label, c.l, c.sym, net.Name(), c.name)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s l=%d sym=%v: accepted, want an error naming %q", label, c.l, c.sym, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s l=%d sym=%v: error %q does not name %q", label, c.l, c.sym, err, c.wantErr)
		}
	}
}

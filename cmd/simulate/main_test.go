package main

import (
	"strings"
	"testing"
)

func TestValidateSweep(t *testing.T) {
	cases := []struct {
		name           string
		ratios         []int
		cycles, warmup int
		wantErr        string // empty: accepted
	}{
		{"defaults", []int{1, 4, 16}, 3000, 300, ""},
		{"no warmup", []int{1}, 1, 0, ""},
		{"zero ratio", []int{0}, 100, 10, "-ratios"},
		{"negative ratio after a good one", []int{1, -3}, 100, 10, "-ratios"},
		{"zero cycles", []int{1}, 0, 10, "-cycles"},
		{"negative cycles", []int{1}, -5, 10, "-cycles"},
		{"negative warmup", []int{1}, 100, -50, "-warmup"},
	}
	for _, c := range cases {
		err := validateSweep(c.ratios, c.cycles, c.warmup)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantErr)
		}
	}
}

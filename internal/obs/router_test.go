package obs

// Tests for the RouterStats value type: Delta's counter-vs-gauge semantics,
// the hit-rate edge cases, the depth-bucket bounds, and the text rendering.

import (
	"bytes"
	"strings"
	"testing"
)

// TestRouterStatsDelta checks field-wise subtraction with the one gauge
// exception: CacheOccupancy keeps the newer absolute value.
func TestRouterStatsDelta(t *testing.T) {
	base := RouterStats{CacheHits: 10, CacheMisses: 4, CacheEvicted: 1,
		CacheOccupancy: 30, Reroutes: 2, DetourHops: 5, DetourDepth: [8]uint64{1, 0, 1}}
	now := RouterStats{CacheHits: 25, CacheMisses: 9, CacheEvicted: 1,
		CacheClears: 1, CacheOccupancy: 12, EpochPurges: 2, Reroutes: 6,
		DetourHops: 11, DetourDepth: [8]uint64{3, 1, 2}}
	d := now.Delta(base)
	want := RouterStats{CacheHits: 15, CacheMisses: 5, CacheClears: 1,
		CacheOccupancy: 12, EpochPurges: 2, Reroutes: 4, DetourHops: 6,
		DetourDepth: [8]uint64{2, 1, 1}}
	if d != want {
		t.Fatalf("Delta = %+v, want %+v", d, want)
	}
}

// TestRouterStatsCacheHitRate covers the zero-lookup and all-hit edges.
func TestRouterStatsCacheHitRate(t *testing.T) {
	if r := (RouterStats{}).CacheHitRate(); r != 0 {
		t.Fatalf("no lookups should rate 0, got %v", r)
	}
	if r := (RouterStats{CacheHits: 5}).CacheHitRate(); r != 1 {
		t.Fatalf("all hits should rate 1, got %v", r)
	}
	if r := (RouterStats{CacheHits: 1, CacheMisses: 3}).CacheHitRate(); r != 0.25 {
		t.Fatalf("1/4 should rate 0.25, got %v", r)
	}
}

// TestDetourDepthBounds pins the log2 bucket layout: bucket 0 is the
// conjugate (zero-hop) class, interior buckets cover [2^(b-1), 2^b-1], the
// last absorbs everything deeper.
func TestDetourDepthBounds(t *testing.T) {
	cases := []struct{ b, lo, hi int }{
		{0, 0, 0}, {1, 1, 1}, {2, 2, 3}, {3, 4, 7}, {6, 32, 63}, {7, 64, -1},
	}
	for _, c := range cases {
		if lo, hi := DetourDepthBounds(c.b); lo != c.lo || hi != c.hi {
			t.Fatalf("bucket %d: [%d,%d], want [%d,%d]", c.b, lo, hi, c.lo, c.hi)
		}
	}
}

// TestRouterStatsWriteText checks the rendering: the cache line is always
// present, the reroute block only when repairs happened, with its split
// read off the depth buckets, and every nonzero depth bucket gets a row.
func TestRouterStatsWriteText(t *testing.T) {
	var buf bytes.Buffer
	clean := RouterStats{CacheHits: 3, CacheMisses: 1}
	if err := clean.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "route cache") || !strings.Contains(out, "75.0% hit rate") {
		t.Fatalf("cache line missing or wrong:\n%s", out)
	}
	if strings.Contains(out, "reroutes") {
		t.Fatalf("reroute block rendered with zero reroutes:\n%s", out)
	}

	buf.Reset()
	faulty := RouterStats{CacheMisses: 2, Reroutes: 3, DetourHops: 5,
		DetourDepth: [8]uint64{2, 0, 0, 1}}
	if err := faulty.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "reroutes: 3 (2 conjugate, 1 local-detour), 5 detour hops") {
		t.Fatalf("reroute split missing:\n%s", out)
	}
	if !strings.Contains(out, "detour depth [0]") || !strings.Contains(out, "detour depth [4,7]") {
		t.Fatalf("depth histogram rows missing:\n%s", out)
	}
}

package core

import "time"

// LevelStats is the per-level instrumentation record of the parallel
// level-synchronous builder (see parallel.go): one callback per completed
// BFS level, delivered through BuildOptions.Observe. It ends the "builder
// runs blind for ten seconds" regime — a million-node build reports its
// frontier growth, per-phase wall time, intern-table occupancy, and arena
// footprint as it goes, and cmd/ipgen surfaces it via -progress/-manifest.
//
// Observation never perturbs the build: every field is computed from state
// the builder already holds, between the same barriers, and the callback
// runs on the coordinating goroutine after the level's publication barrier,
// so the enumerated graph stays byte-identical with and without an
// observer (pinned by TestBuildObserverParity).
type LevelStats struct {
	// Level is the 0-based BFS depth just expanded (level 0 expands the
	// seed). FrontierNodes is how many nodes that level expanded, NewNodes
	// how many distinct labels were first discovered, and TotalNodes the
	// interned-label count after the level — the intern-table occupancy.
	Level         int
	FrontierNodes int
	NewNodes      int
	TotalNodes    int
	// ArcSlots is FrontierNodes x generators: the expansion work of the
	// level (every slot is one generator application plus one table probe).
	ArcSlots int
	// Expand/Dedup/Assign/Publish are the wall times of the four
	// barrier-separated phases of the level.
	Expand, Dedup, Assign, Publish time.Duration
	// CandidateArenaBytes counts the candidate label bytes the expansion
	// workers buffered since the build started (cumulative; each worker
	// reuses its buffer level to level), and InternArenaBytes the bytes of
	// the Index's label store, where every interned label lives back to
	// back — together the build's label-storage story.
	CandidateArenaBytes int64
	InternArenaBytes    int64
	// Shards is the intern-table count and MaxShardLoad the label count of
	// the fullest table after publication — a direct view of how evenly
	// labelHash spreads the label space over the tables.
	Shards       int
	MaxShardLoad int
}

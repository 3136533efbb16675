package core

import "time"

// LevelStats is the per-level instrumentation record of Build: one callback
// per expanded BFS level, delivered through BuildOptions.Observe. A
// million-node build reports its frontier growth, level wall time and arena
// footprint as it goes, and cmd/ipgen surfaces it via -progress/-manifest.
//
// Observation never perturbs the build: every field is read from state the
// builder already holds, once per level, so the enumerated graph stays
// byte-identical with and without an observer (pinned by
// TestBuildObserverParity).
type LevelStats struct {
	// Level is the 0-based BFS depth just expanded (level 0 expands the
	// seed). FrontierNodes is how many nodes that level expanded, NewNodes
	// how many distinct labels were first discovered, and TotalNodes the
	// interned-label count after the level — the intern-table occupancy.
	// The last level discovers nothing.
	Level         int
	FrontierNodes int
	NewNodes      int
	TotalNodes    int
	// ArcSlots is FrontierNodes x generators: the expansion work of the
	// level (every slot is one generator application plus one table probe).
	ArcSlots int
	// Expand is the level's wall time.
	Expand time.Duration
	// Dedup, Assign and Publish are always zero. They timed the phases of a
	// parallel enumerator that no longer exists, and stay only because
	// cmd/ipbench still reads them; they go with that command's next
	// revision (ROADMAP item 2).
	Dedup, Assign, Publish time.Duration
	// InternArenaBytes is the size of the Index's label store after the
	// level, where every interned label lives back to back: TotalNodes x
	// label length.
	InternArenaBytes int64
}

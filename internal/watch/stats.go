package watch

import "sync/atomic"

// stats holds the follower's own counters. Deliberately separate from the
// pipeline counter set: the pipeline's deterministic counters are compared
// byte-for-byte by the bench regression gate, while these describe the
// follower's progress and are free to grow with wall-clock polling.
type stats struct {
	blocksFollowed   atomic.Uint64
	deploymentsSeen  atomic.Uint64
	upgradesDetected atomic.Uint64
	invalidations    atomic.Uint64
	reanalyses       atomic.Uint64
	watched          atomic.Uint64
	head             atomic.Uint64
	deltaReads       atomic.Uint64
	cellsChecked     atomic.Uint64
	auditRuns        atomic.Uint64
	auditMismatches  atomic.Uint64
}

// StatsSnapshot is the JSON shape of the follower's counters — what
// /v1/watch/stats serves and what the CI watch job uploads.
type StatsSnapshot struct {
	// Cursor is the last fully processed block.
	Cursor uint64 `json:"cursor"`
	// BlocksFollowed counts blocks fully processed (delta read, deployment
	// routing, touched-cell checks, checkpoint).
	BlocksFollowed uint64 `json:"blocks_followed"`
	// DeploymentsSeen counts new contracts routed into analysis.
	DeploymentsSeen uint64 `json:"deployments_seen"`
	// UpgradesDetected counts watched-cell value changes handled.
	UpgradesDetected uint64 `json:"upgrades_detected"`
	// Invalidations counts cache tiers actually dropped (exact-hash,
	// structural family, service result cache) across all upgrades.
	Invalidations uint64 `json:"invalidations"`
	// Reanalyses counts post-upgrade re-analysis runs.
	Reanalyses uint64 `json:"reanalyses"`
	// Watched is the number of live watched cells.
	Watched uint64 `json:"watched"`
	// Head is the reader's head as of the last poll, and LagBlocks how far
	// the cursor is behind it: zero once a poll has caught up, positive
	// while one is working through a backlog or failing to.
	Head      uint64 `json:"head"`
	LagBlocks uint64 `json:"lag_blocks"`
	// DeltaReads counts successful BlockDelta reads (one per followed
	// block, more when blocks were retried) and CellsChecked the watched
	// cells read because a block wrote them or an audit swept them —
	// together, what following cost the node.
	DeltaReads   uint64 `json:"delta_reads"`
	CellsChecked uint64 `json:"cells_checked"`
	// AuditRuns counts completed audits and AuditMismatches what they
	// found that the delta path had missed. Anything but zero is a bug in
	// the node's deltas or in the follower.
	AuditRuns       uint64 `json:"audit_runs"`
	AuditMismatches uint64 `json:"audit_mismatches"`
}

package core

import "pagen/internal/xrand"

// suspState is a suspended node's continuation: its private random
// stream, positioned right after the draws of the edge attempt that
// could not finish, and the index of that edge. Resuming re-enters the
// attachment loop exactly where the sequential algorithm would be, so a
// node's draw sequence — duplicate retries included — is independent of
// when its copy sources resolve.
type suspState struct {
	rng xrand.Rand
	e   int32
	// key is the global slot id k*x + l of the remote slot the node
	// waits on when the wait went through the request-coalescing table,
	// -1 otherwise. resumeWire uses it to map a wire answer — which
	// carries (t, e), not (k, l) — back to the chain to fan out.
	key int64
}

// suspTable maps a local node index to its suspension record, sized to
// the number of currently suspended nodes rather than the node count
// (waiters.go). A node has at most one suspension (strict per-node edge
// sequencing), so put never replaces a live record except in restore,
// which rewrites a record's chain key.
type suspTable = slotMap[suspState]

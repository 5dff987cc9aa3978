package core

// suspState is an unfinished node's continuation: its frontier edge e —
// F_t(0..e-1) are final, F_t(e) waits on an answer — the retry count of
// edge e's outstanding attempt, and the node's ahead block. An attempt is
// a pure function of its index, so that is all a node needs: the answer
// to edge e either commits or, as a duplicate, issues retry r+1.
type suspState struct {
	e, r, blk int32
}

// suspTable maps a local node index to its suspension record (one per
// unfinished node, however many of its edges are pending; waiters.go).
type suspTable = slotMap[suspState]

// An ahead block holds, past its node's frontier edge, each edge's
// answer once it arrived ahead of the committed prefix, or aheadWaiting
// while the edge's first attempt is outstanding.
const aheadWaiting = -1

// aheadArena holds one block of x values per unfinished node, in pages
// that growth never copies, recycled through a freelist.
type aheadArena struct {
	x     int
	pages [][]int64
	n     int32 // blocks handed out
	free  []int32
}

const aheadPage = 1024

func (a *aheadArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		b := a.free[n-1]
		a.free = a.free[:n-1]
		return b
	}
	if a.n%aheadPage == 0 {
		a.pages = append(a.pages, make([]int64, aheadPage*a.x))
	}
	a.n++
	return a.n - 1
}

func (a *aheadArena) release(b int32) { a.free = append(a.free, b) }

// block returns block b's x values.
func (a *aheadArena) block(b int32) []int64 {
	return a.pages[b/aheadPage][int(b%aheadPage)*a.x:][:a.x:a.x]
}

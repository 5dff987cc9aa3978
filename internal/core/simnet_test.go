package core

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"sync"

	"pagen/internal/msg"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

// simNet is a deterministic in-process network for the determinism
// contract's tests (DESIGN.md §8.1). Every endpoint speaks byte frames,
// so every batch runs the v3 codec path TCP runs. The ranks of a group
// run under one baton: a rank holds it between two transport calls and
// gives it up at every Send, TryRecv and Recv. A scheduler seeded by
// simSched.seed then decides, step by step, which in-flight frame
// arrives next — any (src, dst) channel's head, so traffic is reordered
// across channels and never within one, which is all TCP and shm
// promise — and which parked rank runs next. A rank's helper lanes run
// inside its turn: they only work between a window's hand-off and its
// barrier, which the rank goroutine waits out before its next call.
// Given the engine's determinism, a (config, schedule) pair therefore
// replays the same event sequence every time, and a failing seed is a
// reproducer.
//
// A run that can no longer move — every open rank blocked in Recv and
// nothing in flight — fails with a deadlock error, and a frame that is
// in flight to a closed endpoint, or sent to one, fails the run as a
// read after stop; both name every rank's state. A crash is a schedule
// choice too: a rank crashes at its k-th transport call.
type simNet struct {
	mu    sync.Mutex
	p     int
	sched simSched
	rng   xrand.Rand
	// ch holds the frames in flight, per channel src*p+dst, and inbox
	// the frames that have arrived at each rank, in arrival order.
	ch    [][]simFrame
	inbox [][]transport.Frame
	ranks []simRank
	baton int // the running rank, -1 while none is
	steps int
	log   hash.Hash64 // every event, for replay checks
	// err, once set, ends the run: parked ranks wake to it. aborted is
	// the harness closing every endpoint after a rank failed.
	err     error
	aborted bool
	crashed bool
}

// simSched is one simulated run's schedule: its seed and the crash,
// drops and holds it injects.
type simSched struct {
	seed uint64
	// deliver is the chance that one more in-flight frame arrives
	// before each pick of the next rank (0 selects 0.5): low values
	// keep many frames in flight at once.
	deliver float64
	// crashAt, when positive, crashes rank crashRank at its crashAt-th
	// transport call: the call fails and the harness aborts the group.
	crashRank, crashAt int
	// drop, when set, discards a whole frame it returns true for — a
	// deliberately unreliable network.
	drop func(src, dst int, ms []msg.Message) bool
	// hold keeps a channel's head frame in flight while it returns true,
	// unless nothing else in the run can move.
	hold func(src, dst int, ms []msg.Message) bool
	// sent and received see every frame a rank sends and takes.
	sent, received func(src, dst int, ms []msg.Message)
}

// maxSimSteps bounds a run's scheduler steps: a protocol that livelocks
// instead of deadlocking fails here rather than hanging the test.
const maxSimSteps = 1_000_000

type simFrame struct {
	data []byte
	ms   []msg.Message // decoded, for holds and diagnostics
}

type simState uint8

const (
	simStarting simState = iota // not yet at its first transport call
	simReady                    // parked at Send or TryRecv
	simRecv                     // parked in Recv: runnable once a frame arrived
	simRunning                  // holds the baton
	simClosed
)

var simStateNames = [...]string{"starting", "ready", "blocked in Recv", "running", "closed"}

type simRank struct {
	state simState
	wake  chan struct{}
	calls int
}

var errSimCrash = errors.New("simnet: crashed by schedule")

func newSimNet(p int, sched simSched) *simNet {
	n := &simNet{
		p:     p,
		sched: sched,
		ch:    make([][]simFrame, p*p),
		inbox: make([][]transport.Frame, p),
		ranks: make([]simRank, p),
		baton: -1,
		log:   fnv.New64a(),
	}
	n.rng.Seed(sched.seed)
	if n.sched.deliver <= 0 {
		n.sched.deliver = 0.5
	}
	for r := range n.ranks {
		n.ranks[r].wake = make(chan struct{}, 1)
	}
	return n
}

// endpoint returns rank r's transport. It deliberately has no SendMsgs,
// so the communicator encodes every batch.
func (n *simNet) endpoint(r int) transport.Transport { return &simEnd{n: n, r: r} }

// logEvent folds one event into the replay hash.
func (n *simNet) logEvent(vals ...int64) {
	var b [8]byte
	for _, v := range vals {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		n.log.Write(b[:])
	}
}

// describe names every rank's state and what is in flight.
func (n *simNet) describe() string {
	var b strings.Builder
	for r, rk := range n.ranks {
		fmt.Fprintf(&b, "\n  rank %d: %s after %d calls, %d frames arrived", r, simStateNames[rk.state], rk.calls, len(n.inbox[r]))
	}
	for c, q := range n.ch {
		if len(q) > 0 {
			fmt.Fprintf(&b, "\n  %d frames in flight %d -> %d, the first carrying %s", len(q), c/n.p, c%n.p, kinds(q[0].ms))
		}
	}
	return b.String()
}

// kinds lists a frame's message kinds, for diagnostics.
func kinds(ms []msg.Message) string {
	s := make([]string, len(ms))
	for i, m := range ms {
		s[i] = m.Kind.String()
		if m.Kind == msg.KindCkpt {
			s[i] = fmt.Sprintf("ckpt(op %d, epoch %d)", m.E, m.K)
		}
	}
	return "[" + strings.Join(s, " ") + "]"
}

// failLocked ends the run with err, waking every parked rank.
func (n *simNet) failLocked(err error) {
	if n.err != nil {
		return
	}
	n.err = err
	for r := range n.ranks {
		if s := n.ranks[r].state; s == simReady || s == simRecv {
			n.wakeLocked(r)
		}
	}
}

func (n *simNet) wakeLocked(r int) {
	select {
	case n.ranks[r].wake <- struct{}{}:
	default:
	}
}

// abort is the harness's reaction to a failed rank: every endpoint
// closes, parked ranks return ErrClosed, and nothing is checked any
// more.
func (n *simNet) abort() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.aborted = true
	n.failLocked(transport.ErrClosed)
}

// enterLocked starts a transport call of rank r: counts it and fails it
// if the run is over or the schedule crashes r here.
func (n *simNet) enterLocked(r int) error {
	if n.err != nil {
		return n.err
	}
	rk := &n.ranks[r]
	if rk.state == simClosed {
		return transport.ErrClosed
	}
	rk.calls++
	if r == n.sched.crashRank && rk.calls == n.sched.crashAt {
		n.crashed = true
		n.logEvent(-1, int64(r))
		return errSimCrash
	}
	return nil
}

// yieldLocked parks rank r in state s, lets the scheduler run, and
// returns once r holds the baton again (nil) or the run has ended.
func (n *simNet) yieldLocked(r int, s simState) error {
	n.ranks[r].state = s
	if n.baton == r {
		n.baton = -1
	}
	n.scheduleLocked()
	for n.baton != r && n.err == nil {
		n.mu.Unlock()
		<-n.ranks[r].wake
		n.mu.Lock()
	}
	if n.baton == r {
		return nil
	}
	return n.err
}

// scheduleLocked hands the baton on once every open rank is parked:
// some in-flight frames arrive, then a runnable rank is picked. With no
// runnable rank a frame must arrive — a held one if nothing else is in
// flight — and with no frame in flight the run is deadlocked.
func (n *simNet) scheduleLocked() {
	if n.baton >= 0 || n.err != nil {
		return
	}
	open := 0
	for _, rk := range n.ranks {
		switch rk.state {
		case simStarting:
			return
		case simClosed:
		default:
			open++
		}
	}
	if open == 0 {
		return
	}
	for n.rng.Float64() < n.sched.deliver && n.arriveLocked(false) {
	}
	for {
		var cand []int
		for r, rk := range n.ranks {
			if rk.state == simReady || rk.state == simRecv && len(n.inbox[r]) > 0 {
				cand = append(cand, r)
			}
		}
		if len(cand) > 0 {
			r := cand[n.rng.Uint64n(uint64(len(cand)))]
			if n.steps++; n.steps > maxSimSteps {
				n.failLocked(fmt.Errorf("simnet: no progress after %d steps (livelock?):%s", maxSimSteps, n.describe()))
				return
			}
			n.logEvent(0, int64(r))
			n.baton = r
			n.ranks[r].state = simRunning
			n.wakeLocked(r)
			return
		}
		if !n.arriveLocked(false) && !n.arriveLocked(true) {
			n.failLocked(fmt.Errorf("simnet: deadlock at step %d: every open rank waits and nothing is in flight:%s", n.steps, n.describe()))
			return
		}
	}
}

// arriveLocked moves the head frame of one seeded channel into its
// destination's inbox. Held channels are passed over unless force is
// set, when only they are left. It reports whether a frame moved.
func (n *simNet) arriveLocked(force bool) bool {
	var cand []int
	for c, q := range n.ch {
		if len(q) == 0 {
			continue
		}
		held := n.sched.hold != nil && n.sched.hold(c/n.p, c%n.p, q[0].ms)
		if held == force {
			cand = append(cand, c)
		}
	}
	if len(cand) == 0 {
		return false
	}
	c := cand[n.rng.Uint64n(uint64(len(cand)))]
	f := n.ch[c][0]
	n.ch[c] = n.ch[c][1:]
	src, dst := c/n.p, c%n.p
	n.logEvent(1, int64(src), int64(dst))
	n.inbox[dst] = append(n.inbox[dst], transport.Frame{From: src, Data: f.data})
	return true
}

// send parks r and, once r runs again, enqueues one frame from it on
// its channel to dst unless the schedule drops it. Every call
// takes effect under the baton, so even the ranks' first calls, which
// arrive in whatever order the goroutines start, are ordered by the
// schedule alone.
func (n *simNet) send(r, to int, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.enterLocked(r)
	if err == nil {
		err = n.yieldLocked(r, simReady)
	}
	if err == nil && (to < 0 || to >= n.p) {
		err = fmt.Errorf("simnet: send to rank %d outside [0,%d)", to, n.p)
	}
	if err != nil {
		transport.ReleaseFrame(data)
		return err
	}
	ms, err := msg.DecodeBatch(nil, data)
	if err != nil {
		n.failLocked(fmt.Errorf("simnet: rank %d sent an undecodable frame to rank %d: %w", r, to, err))
		return n.err
	}
	if n.ranks[to].state == simClosed && !n.aborted {
		n.failLocked(fmt.Errorf("simnet: read after stop: rank %d sends %s to rank %d, which has closed:%s", r, kinds(ms), to, n.describe()))
		return n.err
	}
	if n.sched.sent != nil {
		n.sched.sent(r, to, ms)
	}
	if n.sched.drop != nil && n.sched.drop(r, to, ms) {
		transport.ReleaseFrame(data)
		return nil
	}
	h := fnv.New64a()
	h.Write(data)
	n.logEvent(2, int64(r), int64(to), int64(h.Sum64()))
	n.ch[r*n.p+to] = append(n.ch[r*n.p+to], simFrame{data: data, ms: ms})
	return nil
}

// recv takes r's next arrived frame after a yield; block parks r until
// one has arrived.
func (n *simNet) recv(r int, block bool) (transport.Frame, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.enterLocked(r); err != nil {
		return transport.Frame{}, false, err
	}
	s := simReady
	if block {
		s = simRecv
	}
	if err := n.yieldLocked(r, s); err != nil {
		return transport.Frame{}, false, err
	}
	if len(n.inbox[r]) == 0 {
		return transport.Frame{}, false, nil
	}
	f := n.inbox[r][0]
	n.inbox[r] = n.inbox[r][1:]
	n.logEvent(3, int64(r), int64(f.From))
	if n.sched.received != nil {
		ms, _ := msg.DecodeBatch(nil, f.Data)
		n.sched.received(f.From, r, ms)
	}
	return f, true, nil
}

// close closes r's endpoint and hands the baton on. Anything still in
// flight to r, or arrived and unread, is a read after stop.
func (n *simNet) close(r int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ranks[r].state == simClosed {
		return
	}
	if !n.aborted && n.err == nil {
		for src := 0; src < n.p; src++ {
			if q := n.ch[src*n.p+r]; len(q) > 0 {
				n.failLocked(fmt.Errorf("simnet: read after stop: rank %d closed with %s from rank %d in flight:%s", r, kinds(q[0].ms), src, n.describe()))
			}
		}
		if len(n.inbox[r]) > 0 && n.err == nil {
			f := n.inbox[r][0]
			ms, _ := msg.DecodeBatch(nil, f.Data)
			n.failLocked(fmt.Errorf("simnet: read after stop: rank %d closed with %s from rank %d unread:%s", r, kinds(ms), f.From, n.describe()))
		}
	}
	n.ranks[r].state = simClosed
	n.logEvent(4, int64(r))
	if n.baton == r {
		n.baton = -1
	}
	n.scheduleLocked()
}

// simEnd is one rank's endpoint of a simNet.
type simEnd struct {
	n *simNet
	r int
}

func (e *simEnd) Rank() int                   { return e.r }
func (e *simEnd) Size() int                   { return e.n.p }
func (e *simEnd) Send(to int, d []byte) error { return e.n.send(e.r, to, d) }

func (e *simEnd) Recv() (transport.Frame, error) {
	f, _, err := e.n.recv(e.r, true)
	return f, err
}

func (e *simEnd) TryRecv() (transport.Frame, bool, error) { return e.n.recv(e.r, false) }

func (e *simEnd) Close() error {
	e.n.close(e.r)
	return nil
}

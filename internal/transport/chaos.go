package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pagen/internal/xrand"
)

// ErrChaosKilled is returned by Send once a Chaos endpoint has executed
// its configured kill: the local rank behaves like a crashed process.
var ErrChaosKilled = errors.New("transport: chaos kill")

// ChaosConfig configures the fault injection of NewChaos. Probabilities
// are per-frame and independent; zero values inject nothing.
type ChaosConfig struct {
	// Seed drives the injection decisions (reproducible chaos).
	Seed uint64
	// DropProb is the probability a sent frame is silently discarded.
	// The engine protocol assumes a reliable transport, so dropping is
	// for exercising timeout/liveness error paths, not correctness.
	DropProb float64
	// DupProb is the probability a sent frame is delivered twice (the
	// duplicate is a deep copy, so frame-buffer ownership stays sound).
	DupProb float64
	// DelayProb is the probability a sent frame is held for a random
	// duration up to MaxDelay before delivery. Per-destination FIFO
	// order is preserved — a held frame also delays the frames behind
	// it — so the Transport ordering contract still holds.
	DelayProb float64
	// MaxDelay bounds injected delays (default 1ms when DelayProb > 0).
	MaxDelay time.Duration
	// KillAfterSends, when positive, makes the endpoint die after that
	// many Send calls: the inner transport is closed abruptly (no
	// goodbye — peers observe a crashed process) and every subsequent
	// Send returns ErrChaosKilled.
	KillAfterSends int64
}

// Chaos wraps a Transport with randomized fault injection — dropped,
// duplicated and delayed frames, and a kill switch that simulates the
// process dying mid-protocol. It is the test harness for the runtime's
// failure model: chaos tests assert that the engine and collectives
// either survive (delay, duplication where tolerated) or fail fast with
// an error (drop, kill) instead of hanging.
type Chaos struct {
	inner Transport
	cfg   ChaosConfig
	lines []*delayLine
	wg    sync.WaitGroup

	mu  sync.Mutex
	rng *xrand.Rand

	sends    int64 // atomic
	killed   atomic.Bool
	killOnce sync.Once

	dropped    int64 // atomic
	duplicated int64 // atomic
	delayed    int64 // atomic

	sendMu  sync.Mutex
	sendErr error
}

// NewChaos wraps inner with the configured fault injection.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	c := &Chaos{
		inner: inner,
		cfg:   cfg,
		rng:   xrand.New(cfg.Seed),
		lines: make([]*delayLine, inner.Size()),
	}
	for i := range c.lines {
		c.lines[i] = newDelayLine()
		c.wg.Add(1)
		go c.pump(i)
	}
	return c
}

// Dropped returns the number of frames discarded so far.
func (c *Chaos) Dropped() int64 { return atomic.LoadInt64(&c.dropped) }

// Duplicated returns the number of frames delivered twice so far.
func (c *Chaos) Duplicated() int64 { return atomic.LoadInt64(&c.duplicated) }

// Delayed returns the number of frames held back so far.
func (c *Chaos) Delayed() int64 { return atomic.LoadInt64(&c.delayed) }

// roll draws a uniform float in [0,1) under the lock (Send may be called
// from resolution cascades and pump goroutines are concurrent).
func (c *Chaos) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// randDelay draws a delay in (0, MaxDelay].
func (c *Chaos) randDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Uint64n(uint64(c.cfg.MaxDelay))) + 1
}

// pump forwards one destination's delay line in FIFO order, honouring
// each frame's deadline.
func (c *Chaos) pump(to int) {
	defer c.wg.Done()
	for {
		f, ok := c.lines[to].pop()
		if !ok {
			return
		}
		if wait := time.Until(f.deadline); wait > 0 {
			time.Sleep(wait)
		}
		if err := c.inner.Send(to, f.data); err != nil {
			c.sendMu.Lock()
			if c.sendErr == nil {
				c.sendErr = err
			}
			c.sendMu.Unlock()
			return
		}
	}
}

// kill closes the inner transport abruptly, once. Transports with an
// Abort method (TCP) die without the graceful goodbye, so peers observe
// a genuine crash; otherwise Close is the closest available guillotine.
func (c *Chaos) kill() {
	c.killOnce.Do(func() {
		c.killed.Store(true)
		for _, l := range c.lines {
			l.close()
		}
		if a, ok := c.inner.(interface{ Abort() }); ok {
			a.Abort()
		} else {
			c.inner.Close()
		}
	})
}

// Send implements Transport with fault injection applied in order:
// kill check, drop, then (possibly delayed) delivery plus an optional
// duplicate.
func (c *Chaos) Send(to int, data []byte) error {
	if to < 0 || to >= len(c.lines) {
		return c.inner.Send(to, data) // delegate range error
	}
	if c.killed.Load() {
		return ErrChaosKilled
	}
	if c.cfg.KillAfterSends > 0 && atomic.AddInt64(&c.sends, 1) > c.cfg.KillAfterSends {
		c.kill()
		return ErrChaosKilled
	}
	c.sendMu.Lock()
	err := c.sendErr
	c.sendMu.Unlock()
	if err != nil {
		return err
	}
	if c.cfg.DropProb > 0 && c.roll() < c.cfg.DropProb {
		atomic.AddInt64(&c.dropped, 1)
		ReleaseFrame(data) // we consumed the frame by discarding it
		return nil
	}
	deadline := time.Now()
	if c.cfg.DelayProb > 0 && c.roll() < c.cfg.DelayProb {
		atomic.AddInt64(&c.delayed, 1)
		deadline = deadline.Add(c.randDelay())
	}
	var dup []byte
	if c.cfg.DupProb > 0 && c.roll() < c.cfg.DupProb {
		atomic.AddInt64(&c.duplicated, 1)
		dup = append(LeaseFrame(len(data)), data...)
	}
	if err := c.lines[to].push(delayedFrame{deadline: deadline, data: data}); err != nil {
		return err
	}
	if dup != nil {
		return c.lines[to].push(delayedFrame{deadline: deadline, data: dup})
	}
	return nil
}

// Rank implements Transport.
func (c *Chaos) Rank() int { return c.inner.Rank() }

// Size implements Transport.
func (c *Chaos) Size() int { return c.inner.Size() }

// Recv implements Transport.
func (c *Chaos) Recv() (Frame, error) {
	f, err := c.inner.Recv()
	if err != nil && c.killed.Load() {
		return Frame{}, fmt.Errorf("%w: %v", ErrChaosKilled, err)
	}
	return f, err
}

// TryRecv implements Transport.
func (c *Chaos) TryRecv() (Frame, bool, error) {
	f, ok, err := c.inner.TryRecv()
	if err != nil && c.killed.Load() {
		return Frame{}, false, fmt.Errorf("%w: %v", ErrChaosKilled, err)
	}
	return f, ok, err
}

// Close implements Transport: the delay lines drain (forwarding held
// frames) before the inner transport closes.
func (c *Chaos) Close() error {
	if c.killed.Load() {
		c.wg.Wait()
		return nil
	}
	for _, l := range c.lines {
		l.close()
	}
	c.wg.Wait()
	return c.inner.Close()
}

type delayedFrame struct {
	deadline time.Time
	data     []byte
}

// delayLine is an unbounded FIFO of delayedFrames with blocking pop,
// following the mailbox pattern.
type delayLine struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []delayedFrame
	closed bool
}

func newDelayLine() *delayLine {
	l := &delayLine{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *delayLine) push(f delayedFrame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.q = append(l.q, f)
	l.cond.Signal()
	return nil
}

// pop blocks until a frame or close; ok is false once closed and drained.
func (l *delayLine) pop() (delayedFrame, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.q) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.q) == 0 {
		return delayedFrame{}, false
	}
	f := l.q[0]
	l.q = l.q[1:]
	if len(l.q) == 0 {
		l.q = nil
	}
	return f, true
}

func (l *delayLine) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

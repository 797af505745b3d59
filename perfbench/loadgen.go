package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// op is one generated request. Its register, verb and argument come
// from the seeded input stream; its expected reply is computed from the
// shadow model when it is sent.
type op struct {
	key  int
	verb string // "set", "add", "sub" or "get"
	arg  int64
	// due is the intended send time: latency is timed from it, so a
	// stall also charges the requests that should have been sent during
	// it (no coordinated omission).
	due time.Time
	// cl is the client identity that sends it; seq is the sequence
	// number it was sent under.
	cl  *lane
	seq uint64
	ph  *phase
}

func (o *op) write() bool { return o.verb != "get" }

// expect returns the reply a correct system gives to o on a register
// holding v, and the register's value afterwards.
func (o *op) expect(v int64) (reply, after int64) {
	switch o.verb {
	case "set":
		return o.arg, o.arg
	case "add":
		return v + o.arg, v + o.arg
	case "sub":
		return v - o.arg, v - o.arg
	default:
		return v, v
	}
}

// outcome is the result of sending one op.
type outcome struct {
	value int64
	// retried is set when the first delivery (the call a user with the
	// default retry budget makes) failed and the op was redelivered
	// under the same request identity.
	retried bool
	err     error
}

// sender delivers one op to the system under test.
type sender func(ctx context.Context, o *op) outcome

// sample is one completed request: when it was due, when it ended.
type sample struct {
	due, done time.Time
	ok, write bool
	cl        *lane
	seq       uint64
}

// phase gathers the requests of one measured stretch of a run.
type phase struct {
	lag     histogram
	mu      sync.Mutex
	samples []sample

	attempted, acked, failed, retried atomic.Int64
}

// latencies returns a histogram of the samples' latencies, each timed
// from the request's due time. Every latency figure a run reports is a
// quantile of one of these.
func latencies(ss []sample) *histogram {
	h := &histogram{}
	for _, s := range ss {
		h.record(s.done.Sub(s.due))
	}
	return h
}

// engine is the open-loop load generator. Arrivals follow a fixed
// schedule whatever the system does; each register has one request in
// flight at a time, later requests for it wait in a FIFO (their latency
// still runs from their own due time), which fixes the order of every
// register's operations and lets the shadow model predict each reply.
type engine struct {
	send sender
	// readBack reads a register's current value; it settles the state of
	// a register after an ambiguous failure.
	readBack func(ctx context.Context, key int) (int64, error)

	mu    sync.Mutex
	model []int64
	busy  []bool
	queue [][]*op
	wg    sync.WaitGroup

	outstanding atomic.Int64
	mismatches  atomic.Int64
	firstBad    atomic.Pointer[string]
}

func newEngine(keys int, send sender) *engine {
	return &engine{
		send:  send,
		model: make([]int64, keys),
		busy:  make([]bool, keys),
		queue: make([][]*op, keys),
	}
}

func (e *engine) mismatch(format string, args ...any) {
	n := e.mismatches.Add(1)
	msg := fmt.Sprintf(format, args...)
	if n <= 20 {
		fmt.Fprintf(os.Stderr, "%s mismatch: %s\n", time.Now().Format("15:04:05.000"), msg)
	}
	e.firstBad.CompareAndSwap(nil, &msg)
}

// submit hands o to its register: sent now if the register is idle,
// queued behind its in-flight request otherwise.
func (e *engine) submit(ctx context.Context, o *op) {
	o.ph.attempted.Add(1)
	e.outstanding.Add(1)
	e.mu.Lock()
	if e.busy[o.key] {
		e.queue[o.key] = append(e.queue[o.key], o)
		e.mu.Unlock()
		return
	}
	e.busy[o.key] = true
	e.mu.Unlock()
	e.wg.Add(1)
	go e.run(ctx, o)
}

// run sends o and then every request queued behind it on its register.
func (e *engine) run(ctx context.Context, o *op) {
	defer e.wg.Done()
	for o != nil {
		e.exec(ctx, o)
		e.outstanding.Add(-1)
		e.mu.Lock()
		if q := e.queue[o.key]; len(q) > 0 {
			o = q[0]
			q[0] = nil
			e.queue[o.key] = q[1:]
		} else {
			e.busy[o.key] = false
			o = nil
		}
		e.mu.Unlock()
	}
}

// exec sends one op and checks its reply against the shadow model. The
// model slot of o.key is owned by this goroutine for the duration: the
// register's busy flag, handed over under e.mu, orders the accesses.
func (e *engine) exec(ctx context.Context, o *op) {
	before := e.model[o.key]
	want, after := o.expect(before)
	out := e.send(ctx, o)
	done := time.Now()
	ph := o.ph
	if out.retried {
		ph.retried.Add(1)
	}
	ok := out.err == nil
	switch {
	case ok:
		ph.acked.Add(1)
		if out.value != want {
			e.mismatch("%s:r%d %d on %d: got %d, want %d", o.verb, o.key, o.arg, before, out.value, want)
		}
		e.model[o.key] = after
	default:
		ph.failed.Add(1)
		if o.write() {
			e.settle(ctx, o, before, after)
		}
	}
	ph.mu.Lock()
	ph.samples = append(ph.samples, sample{due: o.due, done: done, ok: ok, write: o.write(), cl: o.cl, seq: o.seq})
	ph.mu.Unlock()
}

// settle resolves a write that failed ambiguously: it may or may not
// have executed, so the register must now hold one of the two values.
func (e *engine) settle(ctx context.Context, o *op, before, after int64) {
	if e.readBack == nil {
		e.mismatch("%s:r%d failed and cannot be read back", o.verb, o.key)
		return
	}
	v, err := e.readBack(ctx, o.key)
	if err != nil {
		e.mismatch("read back r%d after failed %s: %v", o.key, o.verb, err)
		return
	}
	if v != before && v != after {
		e.mismatch("r%d after failed %s %d: holds %d, want %d or %d", o.key, o.verb, o.arg, v, before, after)
	}
	e.model[o.key] = v
}

// drain waits until every submitted request has completed.
func (e *engine) drain() { e.wg.Wait() }

// schedule submits arrivals at a constant rate for d, taking each op
// from next, and returns once the last one is submitted (not answered).
// Each arrival's lateness behind its slot is recorded in ph.lag.
func (e *engine) schedule(ctx context.Context, ph *phase, rate float64, d time.Duration, next func() *op) {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(d / interval)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if ctx.Err() != nil {
			return
		}
		ph.lag.record(time.Since(due))
		o := next()
		o.due, o.ph = due, ph
		e.submit(ctx, o)
	}
}

// verify reads every register back and compares it with the model:
// each acknowledged write applied exactly once.
func (e *engine) verify(ctx context.Context, workers int) {
	keys := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				v, err := e.readBack(ctx, k)
				if err != nil {
					e.mismatch("final read of r%d: %v", k, err)
					continue
				}
				if v != e.model[k] {
					e.mismatch("final r%d = %d, want %d", k, v, e.model[k])
				}
			}
		}()
	}
	for k := range e.model {
		keys <- k
	}
	close(keys)
	wg.Wait()
}

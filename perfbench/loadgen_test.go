package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// A serial fake server that pauses for 200 ms under 1000 req/s. An
// open-loop generator timing from intended send times charges the pause
// to every request due during it: about 200 requests are delayed, the
// first half of them by 100 ms or more. A closed-loop generator would
// have sent one request into the pause and recorded one slow sample.
func TestCoordinatedOmission(t *testing.T) {
	const (
		rate  = 1000.0
		run   = time.Second
		pause = 200 * time.Millisecond
	)
	var (
		mu         sync.Mutex
		pauseStart time.Time
	)
	start := time.Now()
	server := func(ctx context.Context, o *op) outcome {
		mu.Lock()
		defer mu.Unlock()
		if pauseStart.IsZero() && time.Since(start) >= 400*time.Millisecond {
			pauseStart = time.Now()
			time.Sleep(pause)
		}
		return outcome{value: o.arg}
	}
	// One register per arrival, so the per-register FIFO never queues.
	e := newEngine(int(rate), server)
	ph := &phase{}
	i := 0
	e.schedule(context.Background(), ph, rate, run, func() *op {
		i++
		return &op{key: i - 1, verb: "set", arg: int64(i)}
	})
	e.drain()

	if n := ph.acked.Load(); n < 950 {
		t.Fatalf("acked %d of %v requests", n, rate)
	}
	if e.mismatches.Load() != 0 {
		t.Fatalf("mismatches: %s", *e.firstBad.Load())
	}
	lat := latencies(ph.samples)
	delayed := lat.beyond(20 * time.Millisecond)
	slow := lat.beyond(100 * time.Millisecond)
	if delayed < 160 || delayed > 220 {
		t.Errorf("%d requests report >= 20ms, want about 180-200", delayed)
	}
	if slow < 80 || slow > 120 {
		t.Errorf("%d requests report >= 100ms, want about 100", slow)
	}
	if max := lat.quantile(1); max < 180*time.Millisecond {
		t.Errorf("max latency %v, want about %v", max, pause)
	}
}

// The shadow model catches a reply that does not match, and a register
// written twice.
func TestEngineDetectsWrongReplies(t *testing.T) {
	state := make([]int64, 4)
	var mu sync.Mutex
	dup := false
	server := func(ctx context.Context, o *op) outcome {
		mu.Lock()
		defer mu.Unlock()
		v, _ := o.expect(state[o.key])
		state[o.key] = v
		if o.key == 3 && o.verb == "add" && !dup {
			// Execute twice, as a lost reply-log entry would.
			dup = true
			state[o.key] += o.arg
		}
		return outcome{value: v}
	}
	e := newEngine(len(state), server)
	e.readBack = func(ctx context.Context, key int) (int64, error) {
		mu.Lock()
		defer mu.Unlock()
		return state[key], nil
	}
	ph := &phase{}
	ctx := context.Background()
	for k := range state {
		e.submit(ctx, &op{key: k, verb: "add", arg: 5, due: time.Now(), ph: ph})
	}
	e.drain()
	if e.mismatches.Load() != 0 {
		t.Fatalf("unexpected mismatch: %s", *e.firstBad.Load())
	}
	e.verify(ctx, 2)
	if e.mismatches.Load() != 1 {
		t.Fatalf("verify found %d mismatches, want 1 (the doubled add)", e.mismatches.Load())
	}
}

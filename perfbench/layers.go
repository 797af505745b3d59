package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

// spanNames are the request-path spans whose self time the traced run
// reports, in path order.
var spanNames = []string{
	"rpc.client", "rpc.server", "ftm.execute", "ftm.before", "ftm.proceed",
	"ftm.after", "ftm.wave.ship", "ftm.peer.ship", "ftm.replica.apply",
}

// benchSpans records the benchmark's own spans around each timed call
// into a layer; they are written out with the request traces.
var benchSpans = telemetry.NewSpanRecorder(4096)

// benchTrace roots the benchmark's own spans.
var benchTrace = telemetry.SpanContext{TraceID: telemetry.TraceIDFor("perfbench", 1)}

// timed runs f inside a benchmark span and returns its duration.
func timed(name string, f func()) time.Duration {
	sp := benchSpans.Start(benchTrace, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d
}

// layerProbe measures each layer from outside: deltas of the daemons'
// /metrics and CPU over an untraced window of the run, and in a traced
// run also the load generator's own rpc registry, timed calls into layer
// functions, and the span trees of a sample of requests.
type layerProbe struct {
	since      time.Time
	until      time.Time
	masterSlot int
	before     [2]series
	after      [2]series
	cpu0, cpu1 [2]time.Duration
	local0     series
	local1     series

	echo    time.Duration
	overPct *float64
	traces  [][]telemetry.Span
	trs     []transition
	kills   []kill
}

func localSeries() series {
	var buf bytes.Buffer
	_ = telemetry.Default().WritePrometheus(&buf)
	return parseSeries(buf.String())
}

// begin times the transport floor on an idle pair, then opens the
// measurement window.
func (l *layerProbe) begin(ctx context.Context, r *runState) error {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Handle("bench.echo", func(ctx context.Context, p transport.Packet) ([]byte, error) {
		return p.Payload, nil
	})
	payload := make([]byte, 64)
	var h histogram
	for i := 0; i < 2000; i++ {
		var cerr error
		d := timed("bench.transport.echo", func() {
			_, cerr = r.ep.Call(ctx, srv.Addr(), "bench.echo", payload)
		})
		if cerr != nil {
			return fmt.Errorf("echo: %w", cerr)
		}
		h.record(d)
	}
	l.echo = h.quantile(0.5)
	l.local0 = localSeries()
	return l.window(ctx, r)
}

// window (re)opens the daemon window.
func (l *layerProbe) window(ctx context.Context, r *runState) error {
	l.since = time.Now()
	l.masterSlot = r.p.master
	for slot := 0; slot < 2; slot++ {
		s, cpu, err := sampleDaemon(r.p.d[slot])
		if err != nil {
			return err
		}
		l.before[slot], l.cpu0[slot] = s, cpu
	}
	return nil
}

// end closes the daemon window once its load has drained, before
// tracing or the final read-back add work of their own.
func (l *layerProbe) end(ctx context.Context, r *runState) error {
	l.until = time.Now()
	for slot := 0; slot < 2; slot++ {
		s, cpu, err := sampleDaemon(r.p.d[slot])
		if err != nil {
			return err
		}
		l.after[slot], l.cpu1[slot] = s, cpu
	}
	return nil
}

// acked counts the acknowledged requests, and the writes among them,
// that were due inside the daemon window.
func (l *layerProbe) acked(r *runState) (acked, writes int64) {
	for _, ph := range r.measured {
		for _, s := range ph.samples {
			if s.ok && !s.due.Before(l.since) && s.due.Before(l.until) {
				acked++
				if s.write {
					writes++
				}
			}
		}
	}
	return acked, writes
}

func sampleDaemon(d *daemon) (series, time.Duration, error) {
	if d == nil {
		return nil, 0, fmt.Errorf("daemon not running")
	}
	s, err := d.metrics()
	if err != nil {
		return nil, 0, err
	}
	cpu, err := procCPU(d.pid())
	return s, cpu, err
}

// overhead records the traced phase's p50 against the untraced one.
func (l *layerProbe) overhead(untraced, traced time.Duration) {
	if untraced > 0 {
		v := (float64(traced)/float64(untraced) - 1) * 100
		l.overPct = &v
	}
}

// sampleTraces fetches the span trees of the last acknowledged requests
// of ph from the load generator and both daemons. The daemons' span
// rings are bounded, so the sample comes from the phase's tail.
func (l *layerProbe) sampleTraces(ctx context.Context, r *runState, ph *phase) error {
	const n = 100
	ok := make([]sample, 0, len(ph.samples))
	for _, s := range ph.samples {
		if s.ok && s.cl != nil {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].done.Before(ok[j].done) })
	if len(ok) > n {
		ok = ok[len(ok)-n:]
	}
	for _, s := range ok {
		id := telemetry.TraceIDFor(s.cl.c.ID(), s.seq)
		spans := telemetry.DefaultSpans().ForTrace(id)
		for slot := 0; slot < 2; slot++ {
			body, err := r.p.d[slot].get(fmt.Sprintf("/trace/%016x", id))
			if err != nil {
				return err
			}
			var tj telemetry.TraceJSON
			if err := json.Unmarshal(body, &tj); err != nil {
				return fmt.Errorf("trace %016x: %w", id, err)
			}
			spans = append(spans, tj.Spans...)
		}
		l.traces = append(l.traces, spans)
	}
	return nil
}

// selfTimes returns, per span name, each sampled request's total self
// time in that span: its duration minus the part of it its children
// cover. Spans are attributed to the replica that served the request
// (the origin of its rpc.server span); ftm.replica.apply runs on the
// slave and rpc.client in the load generator.
func selfTimes(traces [][]telemetry.Span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, spans := range traces {
		master := ""
		children := map[uint64][]telemetry.Span{}
		for _, s := range spans {
			if s.Name == "rpc.server" {
				master = s.Origin
			}
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		sums := map[string]time.Duration{}
		for _, s := range spans {
			switch {
			case s.Name == "rpc.client" || s.Name == "ftm.replica.apply":
			case s.Origin != master:
				continue
			}
			sums[s.Name] += s.Dur - covered(s, children[s.SpanID])
		}
		for _, name := range spanNames {
			if d, ok := sums[name]; ok {
				out[name] = append(out[name], d)
			}
		}
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent telemetry.Span, kids []telemetry.Span) time.Duration {
	lo, hi := parent.Start, parent.Start.Add(parent.Dur)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Dur)
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	return total + curB.Sub(curA)
}

// finish turns the window and the samples into the per-layer metrics.
func (l *layerProbe) finish(ctx context.Context, r *runState) error {
	w := r.w
	var lag time.Duration
	for _, ph := range r.measured {
		if q := ph.lag.quantile(0.99); q > lag {
			lag = q
		}
	}
	acked, writes := l.acked(r)
	if acked == 0 {
		return fmt.Errorf("no request acknowledged in the measurement window")
	}
	r.set("loadgen.lag_p99_ms", ms(lag), "ms")

	var ops int64
	for _, ph := range r.measured {
		ops += ph.acked.Load() + ph.failed.Load()
	}
	deliveries := delta(l.local0, l.local1, "rpc_client_requests_total") - delta(l.local0, l.local1, "rpc_client_exhausted_total")
	attemptErrs := delta(l.local0, l.local1, "rpc_client_attempt_errors_total")
	r.set("rpc.attempts_per_req", (deliveries+attemptErrs)/float64(ops), "count")
	r.set("rpc.redirects", delta(l.local0, l.local1, "rpc_client_attempt_errors_total", `reason="redirected"`), "count")

	l.routerLayer(r)
	l.replyLogLayer(r)
	r.set("transport.echo_rtt_us", float64(l.echo)/1e3, "us")

	m, s := l.masterSlot, 1-l.masterSlot
	both := func(name string, matchers ...string) float64 {
		return delta(l.before[0], l.after[0], name, matchers...) + delta(l.before[1], l.after[1], name, matchers...)
	}
	onMaster := func(name string, matchers ...string) float64 {
		return delta(l.before[m], l.after[m], name, matchers...)
	}
	// Count histograms are exposed in the ns-based seconds scale.
	r.set("transport.frames_per_write", ratio(onMaster("ftm_wave_frames_per_write_sum")*1e9, onMaster("ftm_wave_frames_per_write_count")), "count")
	r.set("transport.bytes_per_req", (both("transport_bytes_sent_total")+both("transport_bytes_received_total"))/float64(acked), "B")
	r.set("transport.dropped", both("transport_dropped_total"), "count")
	r.set("ftm.wave_batch", ratio(onMaster("ftm_commit_wave_requests_total"), onMaster("ftm_commit_wave_total")), "count")
	// LFR ships no checkpoints: its checkpoint figures read 0.
	full := onMaster("ftm_checkpoint_total", `kind="full"`)
	r.set("ftm.ckpt_full_per_kreq", full*1000/float64(acked), "count")
	r.set("ftm.ckpt_full_kib", ratio(onMaster("ftm_checkpoint_bytes_total", `kind="full"`)/1024, full), "KiB")
	r.set("ftm.ckpt_delta_bytes_per_req", ratio(onMaster("ftm_checkpoint_bytes_total", `kind="delta"`), float64(writes)), "B")
	r.set("ftm.resyncs", both("ftm_resync_total"), "count")
	r.set("ftm.replay_hits", both("ftm_replay_hits_total"), "count")
	r.set("daemon.cpu_us_per_req.master", float64(l.cpu1[m]-l.cpu0[m])/1e3/float64(acked), "us")
	r.set("daemon.cpu_us_per_req.slave", float64(l.cpu1[s]-l.cpu0[s])/1e3/float64(acked), "us")

	self := selfTimes(l.traces)
	for _, name := range spanNames {
		if ds := self[name]; len(ds) > 0 {
			r.set(name+".self_us", float64(median(ds))/1e3, "us")
		}
	}

	if w.faults != nil {
		var deploy, script, remove, detect []time.Duration
		for _, t := range l.trs {
			for _, o := range t.outcomes {
				deploy = append(deploy, o.deploy)
				script = append(script, o.script)
				remove = append(remove, o.remove)
			}
		}
		for _, k := range l.kills {
			detect = append(detect, k.detected.Sub(k.at))
		}
		r.set("adaptation.deploy_us", float64(median(deploy))/1e3, "us")
		r.set("adaptation.script_us", float64(median(script))/1e3, "us")
		r.set("adaptation.remove_us", float64(median(remove))/1e3, "us")
		r.set("detector.detect_ms", ms(median(detect)), "ms")
		// No daemon is killed inside the window.
		r.set("detector.false_suspicions", both("detector_suspicions_total"), "count")
	} else {
		r.set("detector.false_suspicions", r.suspicions, "count")
	}
	r.set("runtime.heap_live_mib", l.after[m].sum("runtime_heap_live_bytes")/(1<<20), "MiB")
	r.set("runtime.goroutines", l.after[m].sum("runtime_goroutines"), "count")
	r.set("slo.captures", l.after[0].sum("slo_captures_total")+l.after[1].sum("slo_captures_total"), "count")
	if l.overPct != nil {
		r.set("trace_overhead_pct", *l.overPct, "%")
	}
	return l.writeSpans(r)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// routerLayer times Router.Pick over the run's own keys and reads how
// evenly the master's shards were loaded.
func (l *layerProbe) routerLayer(r *runState) {
	keys := r.in.picked
	var runs []time.Duration
	for i := 0; i < 5; i++ {
		d := timed("bench.rpc.router.pick", func() {
			for _, k := range keys {
				_ = r.router.Pick(k)
			}
		})
		runs = append(runs, d/time.Duration(len(keys)))
	}
	r.set("rpc.router.pick_ns", float64(median(runs)), "ns")
	m := l.masterSlot
	var max, sum float64
	ids := r.w.shardIDs()
	for _, id := range ids {
		v := delta(l.before[m], l.after[m], "rpc_shard_responses_total", `shard="`+rpc.ShardLabel(id)+`"`, `status="ok"`)
		sum += v
		if v > max {
			max = v
		}
	}
	r.set("rpc.router.shard_skew", ratio(max*float64(len(ids)), sum), "ratio")
}

// replyLogLayer feeds a reply log the run's own acknowledged requests in
// completion order, as the master's log received them, and times the
// full snapshot a full checkpoint takes of it.
func (l *layerProbe) replyLogLayer(r *runState) {
	var all []sample
	for _, ph := range r.measured {
		for _, s := range ph.samples {
			if s.ok && s.cl != nil {
				all = append(all, s)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	log := rpc.NewReplyLog(64)
	clients := map[*lane]bool{}
	payload := make([]byte, 8)
	for _, s := range all {
		clients[s.cl] = true
		log.Record(rpc.Response{ClientID: s.cl.c.ID(), Seq: s.seq, Status: rpc.StatusOK, Payload: payload})
	}
	var runs []time.Duration
	for i := 0; i < 5; i++ {
		runs = append(runs, timed("bench.rpc.replylog.snapshot", func() { log.SnapshotMarked() }))
	}
	r.set("rpc.replylog.snapshot_us", float64(median(runs))/1e3, "us")
	r.set("rpc.replylog.clients", float64(len(clients)), "count")
}

// writeSpans keeps the benchmark's own spans and the sampled request
// trees with the run's results.
func (l *layerProbe) writeSpans(r *runState) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Bench    []telemetry.Span   `json:"bench"`
		Requests [][]telemetry.Span `json:"requests"`
	}{benchSpans.Spans(), l.traces})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-spans.json", r.w.name, r.cfg.seed)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

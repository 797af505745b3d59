package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

type runConfig struct {
	bin     string
	seed    int64
	seconds int
	trace   bool
}

// latencyLimit is the p99 objective a rate must meet: the daemon's own
// default SLO (slo.DefaultObjective).
const latencyLimit = 50 * time.Millisecond

// ladder is the fixed geometric rate ladder sustained_rps is read from.
func ladder() []float64 {
	out := make([]float64, 33)
	for i := range out {
		out[i] = math.Round(2000 * math.Pow(1.1, float64(i)))
	}
	return out
}

// runState is one run of one workload.
type runState struct {
	w   *workload
	cfg runConfig
	ep  *transport.TCPEndpoint
	p   *pair
	e   *engine
	in  *inputs
	res result
	// suspicions is how many times the daemons' failure detectors
	// suspected their peer over the whole run.
	suspicions float64

	router    *rpc.Router
	verifiers map[string]*rpc.Client
	measured  []*phase
	layers    layerProbe
}

func (r *runState) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fastest returns the shortest of ds: the time a fixed piece of work
// takes when nothing else on the host delays it.
func fastest(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	best := ds[0]
	for _, d := range ds[1:] {
		if d < best {
			best = d
		}
	}
	return best
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func runWorkload(ctx context.Context, w *workload, cfg runConfig) (result, error) {
	budget := time.Duration(100+3*cfg.seconds) * time.Second
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	logDir := filepath.Join(buildDir, "logs", fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := os.RemoveAll(logDir); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return result{}, err
	}
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	defer ep.Close()

	r := &runState{w: w, cfg: cfg, ep: ep, res: result{Metrics: map[string]metric{}, Windows: map[string][]float64{}}, verifiers: map[string]*rpc.Client{}}
	p, setups, err := setUp(ctx, w, cfg.bin, logDir, ep)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	r.p = p
	defer p.stop()
	if !cfg.trace {
		r.set("setup_s", fastest(setups).Seconds(), "s")
		for _, d := range setups {
			r.res.Windows["setup_s"] = append(r.res.Windows["setup_s"], d.Seconds())
		}
	}

	r.router = rpc.NewRouter("route", ep, p.routes())
	newLane := func(id, shard string) *lane {
		opts := []rpc.ClientOption{}
		if shard != "" {
			id += "@" + shard
			opts = append(opts, rpc.WithGroup(shard))
		}
		return &lane{c: rpc.NewClient(id, ep, p.replicas(), opts...)}
	}
	pick := func(key string) string {
		if w.shards <= 1 {
			return ""
		}
		return r.router.Pick(key)
	}
	for _, id := range w.shardIDs() {
		r.verifiers[id] = newLane("verify", id).c
	}
	r.in = newInputs(w, cfg.seed, newLane, pick)
	r.e = newEngine(w.keys, deliver)
	r.e.readBack = func(ctx context.Context, key int) (int64, error) {
		c := r.verifiers[pick(regName(key))]
		deadline := time.Now().Add(redeliverFor)
		for {
			resp, err := c.Invoke(ctx, "get:"+regName(key), ftm.EncodeArg(0))
			if err == nil {
				return ftm.DecodeResult(resp.Payload)
			}
			if ctx.Err() != nil || time.Now().After(deadline) {
				return 0, err
			}
		}
	}

	// Untimed: load every register, then warm up at the low rate.
	pre := &phase{}
	for _, o := range r.in.prefill() {
		o.due, o.ph = time.Now(), pre
		r.e.submit(ctx, o)
		for r.e.outstanding.Load() >= 64 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	r.e.drain()
	if pre.failed.Load() > 0 {
		return result{}, fmt.Errorf("prefill: %d writes failed", pre.failed.Load())
	}
	r.e.schedule(ctx, &phase{}, w.low, time.Second, r.in.next)
	r.e.drain()

	if cfg.trace {
		if err := r.layers.begin(ctx, r); err != nil {
			return result{}, err
		}
	}
	S := time.Duration(cfg.seconds) * time.Second
	switch {
	case w.faults != nil:
		err = r.runFaults(ctx, S)
	case cfg.trace:
		err = r.runTracedRates(ctx, S)
	default:
		err = r.runRates(ctx, S)
	}
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, fmt.Errorf("run exceeded its %v budget: %w", budget, err)
	}

	if cfg.trace {
		r.layers.local1 = localSeries()
	}
	r.e.verify(ctx, 32)
	for _, ph := range r.measured {
		r.res.Attempted += ph.attempted.Load()
		r.res.Failed += ph.failed.Load()
	}
	r.res.Correct = r.e.mismatches.Load() == 0 && r.res.Attempted > 0
	if bad := r.e.firstBad.Load(); bad != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d mismatches; first: %s\n", w.name, r.e.mismatches.Load(), *bad)
	}
	if r.suspicions, err = p.suspicions(); err != nil {
		return result{}, err
	}
	if w.faults == nil && r.suspicions > 0 {
		// Nothing failed, so every suspicion was a false one.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v false suspicions by the failure detector\n", w.name, r.suspicions)
		r.res.Correct = false
	}
	if cfg.trace {
		if err := r.layers.finish(ctx, r); err != nil {
			return result{}, err
		}
		return r.res, nil
	}
	acked, _ := r.layers.acked(r)
	if acked == 0 {
		return result{}, fmt.Errorf("no request acknowledged in the measurement window")
	}
	l := &r.layers
	r.set("cpu_us_per_req", float64(l.cpu1[0]-l.cpu0[0]+l.cpu1[1]-l.cpu0[1])/1e3/float64(acked), "us")
	if _, ok := r.res.Metrics["rss_mib"]; !ok {
		r.set("rss_mib", p.rssMiB(), "MiB")
	}
	return r.res, nil
}

// measure runs one fixed-rate phase to completion.
func (r *runState) measure(ctx context.Context, rate float64, d time.Duration) *phase {
	ph := &phase{}
	r.e.schedule(ctx, ph, rate, d, r.in.next)
	r.e.drain()
	r.measured = append(r.measured, ph)
	return ph
}

// window is the stretch over which one latency quantile is taken; a
// run reports the median over its windows, so one pause on a shared
// host moves one window, not the run's figure.
const window = time.Second

// latency reports the median over the phases' windows of each window's
// p50 and p99.
func (r *runState) latency(label string, phs ...*phase) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p50_ms.", 0.5}, {"lat_p99_ms.", 0.99}} {
		var per []time.Duration
		for _, ph := range phs {
			per = append(per, windowQuantiles(ph, window, q.q)...)
		}
		r.set(q.name+label, ms(median(per)), "ms")
		for _, d := range per {
			r.res.Windows[q.name+label] = append(r.res.Windows[q.name+label], ms(d))
		}
	}
}

// blocks is how many alternating blocks each fixed rate is measured in,
// so that slow drift on the host falls on every rate alike.
const blocks = 3

// runRates measures the fixed rates in alternating blocks, which make
// up the daemon window, then the sustainable rate.
func (r *runState) runRates(ctx context.Context, S time.Duration) error {
	share := S / 2
	if r.w.ladder {
		share = S * 3 / 10
	}
	rates := []float64{r.w.low, r.w.high}
	labels := []string{"low", "high"}
	phs := make([][]*phase, len(rates))
	if err := r.layers.window(ctx, r); err != nil {
		return err
	}
	for b := 0; b < blocks; b++ {
		for i, rate := range rates {
			phs[i] = append(phs[i], r.measure(ctx, rate, share/blocks))
		}
	}
	if err := r.layers.end(ctx, r); err != nil {
		return err
	}
	for i, label := range labels {
		r.latency(label, phs[i]...)
	}
	// Peak memory under the fixed rates, before the ladder's overload
	// probes push it to wherever each run's search ends.
	r.set("rss_mib", r.p.rssMiB(), "MiB")
	if r.w.ladder {
		r.set("sustained_rps", r.sustained(ctx, S-2*share), "1/s")
	}
	return nil
}

// sustained binary-searches the fixed ladder for its highest rate that
// meets the latency limit with no failure and no growing backlog. Each
// probe gets an equal share of d.
func (r *runState) sustained(ctx context.Context, d time.Duration) float64 {
	rates := ladder()
	probes := int(math.Ceil(math.Log2(float64(len(rates) + 1))))
	step := d / time.Duration(probes)
	lo, hi := -1, len(rates) // rates[lo] passed, rates[hi] failed
	for lo+1 < hi && ctx.Err() == nil {
		mid := (lo + hi) / 2
		if r.probe(ctx, rates[mid], step) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0
	}
	return rates[lo]
}

// probe offers one ladder rate for d. It passes when no request fails,
// the median over half-second windows of their p99 is within the limit,
// and the queue left when arrivals stop is no more than the limit's
// worth of arrivals (a longer one is a backlog that keeps growing).
func (r *runState) probe(ctx context.Context, rate float64, d time.Duration) bool {
	ph := &phase{}
	r.e.schedule(ctx, ph, rate, d, r.in.next)
	backlog := r.e.outstanding.Load()
	r.e.drain()
	r.measured = append(r.measured, ph)
	p99 := median(windowQuantiles(ph, window/2, 0.99))
	ok := ph.failed.Load() == 0 && p99 <= latencyLimit && float64(backlog) <= rate*latencyLimit.Seconds()
	fmt.Fprintf(os.Stderr, "probe %.0f req/s: p99 %v backlog %d pass=%v\n", rate, p99, backlog, ok)
	// Let the pair settle before the next probe.
	time.Sleep(200 * time.Millisecond)
	return ok
}

// runTracedRates is the traced run of the rate workloads. The high and
// low rates run untraced and make up the daemon window; then the low
// rate runs again with every request traced. The two low-rate p50s give
// the tracing overhead, and the trace sample comes from the tail of the
// traced phase.
func (r *runState) runTracedRates(ctx context.Context, S time.Duration) error {
	share := S / 2
	r.measure(ctx, r.w.high, share)
	ref := r.measure(ctx, r.w.low, share/2)
	if err := r.layers.end(ctx, r); err != nil {
		return err
	}
	telemetry.DefaultSampler().SetEvery(1)
	low := r.measure(ctx, r.w.low, share/2)
	telemetry.DefaultSampler().SetEvery(telemetry.DefaultSampleEvery)
	r.layers.overhead(latencies(ref.samples).quantile(0.5), latencies(low.samples).quantile(0.5))
	return r.layers.sampleTraces(ctx, r, low)
}

// transition is one operator transition of both replicas.
type transition struct {
	start, end time.Time
	outcomes   []mgmtOutcome
}

type mgmtOutcome struct{ deploy, script, remove time.Duration }

// kill is one SIGKILL of the master and its recovery.
type kill struct {
	at, detected, restarted, rejoined time.Time
}

// runFaults runs the workload's one rate while its seeded fault plan
// drives transitions and master kills through the first three quarters
// of the run. The last quarter is quiet and is the daemon window, so the
// LFR request path is measured in steady state with no daemon
// restarting inside the window. In the traced run the window is the
// quiet tail's first half, and the second half is traced.
func (r *runState) runFaults(ctx context.Context, S time.Duration) error {
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x5eed))
	ph := &phase{}
	var (
		wg          sync.WaitGroup
		transitions []transition
		kills       []kill
		evErr       error
		mid         time.Time
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		transitions, kills, evErr = r.w.faults(r, ctx, start, start.Add(S*3/4), rng)
		if evErr != nil {
			return
		}
		if evErr = r.layers.window(ctx, r); evErr != nil || !r.cfg.trace {
			return
		}
		mid = r.layers.since.Add(start.Add(S).Sub(r.layers.since) / 2)
		if evErr = pause(ctx, time.Until(mid)); evErr != nil {
			return
		}
		if evErr = r.layers.end(ctx, r); evErr == nil {
			telemetry.DefaultSampler().SetEvery(1)
		}
	}()
	r.e.schedule(ctx, ph, r.w.low, S, r.in.next)
	wg.Wait()
	r.e.drain()
	telemetry.DefaultSampler().SetEvery(telemetry.DefaultSampleEvery)
	r.measured = append(r.measured, ph)
	if evErr != nil {
		return evErr
	}
	if r.cfg.trace {
		r.layers.trs, r.layers.kills = transitions, kills
		var untraced, traced []sample
		for _, s := range ph.samples {
			switch {
			case s.due.Before(r.layers.since):
			case s.due.Before(mid):
				untraced = append(untraced, s)
			default:
				traced = append(traced, s)
			}
		}
		r.layers.overhead(latencies(untraced).quantile(0.5), latencies(traced).quantile(0.5))
		return r.layers.sampleTraces(ctx, r, ph)
	}
	if err := r.layers.end(ctx, r); err != nil {
		return err
	}
	r.latency("low", ph)
	var gaps, rejoins, detects, trTimes, stalls []time.Duration
	for _, k := range kills {
		// The first request due after the kill that is acknowledged can
		// only have been served by the survivor.
		var first time.Time
		for _, s := range ph.samples {
			if s.ok && !s.due.Before(k.at) && (first.IsZero() || s.done.Before(first)) {
				first = s.done
			}
		}
		if !first.IsZero() {
			gaps = append(gaps, first.Sub(k.at))
		}
		rejoins = append(rejoins, k.rejoined.Sub(k.restarted))
		detects = append(detects, k.detected.Sub(k.at))
	}
	for _, t := range transitions {
		trTimes = append(trTimes, t.end.Sub(t.start))
		var worst time.Duration
		for _, s := range ph.samples {
			if !s.due.Before(t.start) && !s.due.After(t.end) {
				if d := s.done.Sub(s.due); d > worst {
					worst = d
				}
			}
		}
		stalls = append(stalls, worst)
	}
	if len(gaps) != len(kills) {
		return fmt.Errorf("%d of %d kills never saw an acknowledged request", len(kills)-len(gaps), len(kills))
	}
	r.set("failover_gap_ms", ms(median(gaps)), "ms")
	r.set("rejoin_ms", ms(median(rejoins)), "ms")
	r.set("transition_ms", ms(median(trTimes)), "ms")
	r.set("transition_stall_ms", ms(median(stalls)), "ms")
	r.set("failed_ratio", float64(ph.retried.Load())/float64(ph.attempted.Load()), "ratio")
	return nil
}

// windowQuantiles returns the q-quantile latency of each window of
// length w in ph, windows taken by when requests were due.
func windowQuantiles(ph *phase, w time.Duration, q float64) []time.Duration {
	if len(ph.samples) == 0 {
		return nil
	}
	start := ph.samples[0].due
	for _, s := range ph.samples {
		if s.due.Before(start) {
			start = s.due
		}
	}
	var windows [][]sample
	for _, s := range ph.samples {
		i := int(s.due.Sub(start) / w)
		for len(windows) <= i {
			windows = append(windows, nil)
		}
		windows[i] = append(windows[i], s)
	}
	var per []time.Duration
	for _, ss := range windows {
		if len(ss) > 0 {
			per = append(per, latencies(ss).quantile(q))
		}
	}
	return per
}

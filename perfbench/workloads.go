package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/transport"
)

// workload fixes one traffic mix. The workloads are chosen so that each
// mechanism is exercised by one workload and bypassed by another
// (README.md gives the reasons and the metric map).
type workload struct {
	name   string
	ftm    string
	shards int
	keys   int
	// lanes is the number of logical clients: long-lived clients owning
	// keys/lanes registers each, or concurrent session lanes.
	lanes int
	// sessionLen > 0 retires a lane's client identity after that many
	// requests and starts a fresh one (short-lived clients).
	sessionLen int
	// zipf > 1 draws keys Zipf-distributed with that exponent; 0 draws
	// them uniformly.
	zipf       float64
	writeRatio float64
	// low and high are the fixed offered rates (req/s); the workload
	// with faults has one rate.
	low, high float64
	// ladder searches the rate ladder for sustained_rps. A workload
	// whose per-client state grows all run long has no sustainable rate
	// to find: what it sustains falls as it runs.
	ladder bool
	// faults, when set, runs at the low rate while this seeded plan of
	// transitions and kills plays out, instead of the fixed rates.
	faults faultPlan
}

var workloads = []*workload{
	{name: "pbr-steady", ftm: "pbr", shards: 1, keys: 1024, lanes: 64,
		writeRatio: 0.9, low: 1000, high: 3000, ladder: true},
	{name: "pbr-sessions", ftm: "pbr", shards: 4, keys: 16384, lanes: 64, sessionLen: 32,
		zipf: 1.1, writeRatio: 0.5, low: 1000, high: 2000},
	{name: "lfr-steady", ftm: "lfr", shards: 1, keys: 1024, lanes: 64,
		writeRatio: 1, low: 1000, high: 3000, ladder: true},
	{name: "lfr-adapt-failover", ftm: "lfr", shards: 1, keys: 1024, lanes: 64,
		writeRatio: 1, low: 1000, faults: killThenAdapt},
	{name: "lfr-failover-cycles", ftm: "lfr", shards: 1, keys: 1024, lanes: 64,
		writeRatio: 1, low: 1000, faults: killCycles},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shardIDs returns the replica-group IDs a daemon of w hosts: the empty
// ID for an unsharded daemon.
func (w *workload) shardIDs() []string {
	if w.shards <= 1 {
		return []string{""}
	}
	ids := make([]string, w.shards)
	for k := range ids {
		ids[k] = strconv.Itoa(k)
	}
	return ids
}

// lane is one client identity with the sequence numbers the generator
// assigns it: explicit sequence numbers let a failed request be
// redelivered under its original identity, so the reply log answers it
// at most once.
type lane struct {
	c   *rpc.Client
	seq atomic.Uint64
}

// redeliverFor bounds how long an operation is redelivered before it
// counts as failed. Each redelivery is one default-budget Invoke.
const redeliverFor = 10 * time.Second

func regName(key int) string { return "r" + strconv.Itoa(key) }

// deliver sends o through its lane, redelivering under the same request
// identity until acknowledged or redeliverFor has passed.
func deliver(ctx context.Context, o *op) outcome {
	seq := o.cl.seq.Add(1)
	o.seq = seq
	name := o.verb + ":" + regName(o.key)
	payload := ftm.EncodeArg(o.arg)
	deadline := time.Now().Add(redeliverFor)
	retried := false
	for {
		resp, err := o.cl.c.Redeliver(ctx, seq, name, payload)
		if err == nil {
			v, derr := ftm.DecodeResult(resp.Payload)
			return outcome{value: v, retried: retried, err: derr}
		}
		if errors.Is(err, rpc.ErrApp) || ctx.Err() != nil || time.Now().After(deadline) {
			return outcome{retried: true, err: err}
		}
		retried = true
	}
}

// inputs is the seeded input stream of one run: which register, which
// operation, which client. Nothing the system does changes it.
type inputs struct {
	w        *workload
	rng      *rand.Rand
	zipf     *rand.Zipf
	perm     []int
	n        int
	newLane  func(id string, shard string) *lane
	pick     func(key string) string
	owners   []*lane
	sessions []*session
	nextSess int
	// picked keeps the first register names drawn, for timing the
	// router over the run's own keys.
	picked []string
}

// session is one short-lived client: one identity per shard it talks
// to, retired after sessionLen requests.
type session struct {
	id    string
	n     int
	lanes map[string]*lane
}

func newInputs(w *workload, seed int64, newLane func(id, shard string) *lane, pick func(string) string) *inputs {
	in := &inputs{w: w, rng: rand.New(rand.NewSource(seed)), newLane: newLane, pick: pick}
	if w.zipf > 1 {
		in.zipf = rand.NewZipf(in.rng, w.zipf, 1, uint64(w.keys-1))
		// Spread the hot ranks over the key space, hence over shards.
		in.perm = in.rng.Perm(w.keys)
	}
	if w.sessionLen > 0 {
		in.sessions = make([]*session, w.lanes)
	} else {
		in.owners = make([]*lane, w.lanes)
		for i := range in.owners {
			in.owners[i] = newLane("c"+strconv.Itoa(i), "")
		}
	}
	return in
}

// laneFor returns the client that sends a request for key: its owner,
// or the current session of the arrival's lane.
func (in *inputs) laneFor(key int) *lane {
	if in.sessions == nil {
		return in.owners[key*in.w.lanes/in.w.keys]
	}
	i := in.n % in.w.lanes
	s := in.sessions[i]
	if s == nil || s.n >= in.w.sessionLen {
		in.nextSess++
		s = &session{id: "s" + strconv.Itoa(in.nextSess), lanes: map[string]*lane{}}
		in.sessions[i] = s
	}
	s.n++
	shard := in.pick(regName(key))
	l := s.lanes[shard]
	if l == nil {
		l = in.newLane(s.id, shard)
		s.lanes[shard] = l
	}
	return l
}

// next draws the next operation.
func (in *inputs) next() *op {
	var key int
	if in.zipf != nil {
		key = in.perm[in.zipf.Uint64()]
	} else {
		key = in.rng.Intn(in.w.keys)
	}
	if len(in.picked) < 10000 {
		in.picked = append(in.picked, regName(key))
	}
	o := &op{key: key, cl: in.laneFor(key)}
	in.n++
	if in.rng.Float64() >= in.w.writeRatio {
		o.verb = "get"
		return o
	}
	o.arg = int64(in.rng.Intn(1000) - 500)
	o.verb = [...]string{"set", "add", "sub"}[in.rng.Intn(3)]
	return o
}

// prefill returns a set for every register, sent by per-shard loader
// clients.
func (in *inputs) prefill() []*op {
	loaders := map[string]*lane{}
	out := make([]*op, in.w.keys)
	for k := range out {
		shard := in.pick(regName(k))
		l := loaders[shard]
		if l == nil {
			l = in.newLane("load", shard)
			loaders[shard] = l
		}
		out[k] = &op{key: k, verb: "set", arg: int64(in.rng.Intn(1000)), cl: l}
	}
	return out
}

// pair is the resilientd master/slave pair under test, on fresh ports.
type pair struct {
	w        *workload
	bin, log string
	// ftm is the mechanism the pair runs now; a restarted daemon
	// deploys it.
	ftm    string
	addr   [2]string
	http   [2]string
	d      [2]*daemon
	master int
	hwmKiB [2]int64
}

func newPair(w *workload, bin, logDir string) (*pair, error) {
	ports, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	return &pair{
		w: w, bin: bin, log: logDir, ftm: w.ftm,
		addr: [2]string{ports[0], ports[1]},
		http: [2]string{ports[2], ports[3]},
	}, nil
}

func (p *pair) spawn(ctx context.Context, slot int, role string) error {
	args := []string{"-peer", p.addr[1-slot], "-role", role, "-ftm", p.ftm}
	if p.w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(p.w.shards))
	}
	d, err := startDaemon(p.bin, p.log, p.addr[slot], p.http[slot], args...)
	if err != nil {
		return err
	}
	p.d[slot] = d
	return d.waitReady(ctx)
}

// start spawns slot 0 as master and slot 1 as slave.
func (p *pair) start(ctx context.Context) error {
	if err := p.spawn(ctx, 0, "master"); err != nil {
		return err
	}
	p.master = 0
	return p.spawn(ctx, 1, "slave")
}

// kill SIGKILLs one daemon, keeping its peak RSS.
func (p *pair) kill(slot int) {
	d := p.d[slot]
	if d == nil {
		return
	}
	d.kill()
	if d.hwmKiB > p.hwmKiB[slot] {
		p.hwmKiB[slot] = d.hwmKiB
	}
	p.d[slot] = nil
}

func (p *pair) stop() {
	p.kill(0)
	p.kill(1)
}

func (p *pair) replicas() []transport.Address {
	return []transport.Address{transport.Address(p.addr[0]), transport.Address(p.addr[1])}
}

func (p *pair) routes() []rpc.ShardRoute {
	ids := p.w.shardIDs()
	out := make([]rpc.ShardRoute, len(ids))
	for i, id := range ids {
		out[i] = rpc.ShardRoute{ID: id, Replicas: p.replicas()}
	}
	return out
}

func (p *pair) slave() *daemon { return p.d[1-p.master] }

// replicated reports whether the slave has applied replicated work:
// a checkpoint under PBR, a forwarded request under LFR.
func (p *pair) replicated() bool {
	s, err := p.slave().metrics()
	if err != nil {
		return false
	}
	if p.ftm == "lfr" {
		return s.sum("ftm_requests_total") > 0
	}
	return s.sum("ftm_checkpoint_applied_total") > 0
}

// suspicions returns how many times the two running daemons' failure
// detectors have suspected their peer.
func (p *pair) suspicions() (float64, error) {
	var n float64
	for _, d := range p.d {
		s, err := d.metrics()
		if err != nil {
			return 0, err
		}
		n += s.sum("detector_suspicions_total")
	}
	return n, nil
}

// rssMiB returns the peak resident memory of both daemon slots, each the
// largest over its incarnations.
func (p *pair) rssMiB() float64 {
	var total int64
	for slot := 0; slot < 2; slot++ {
		hwm := p.hwmKiB[slot]
		if d := p.d[slot]; d != nil {
			if v, err := procHWM(d.pid()); err == nil && v > hwm {
				hwm = v
			}
		}
		total += hwm
	}
	return float64(total) / 1024
}

// setupRounds is how many fresh pairs a run starts to time set-up; the
// fastest is reported and the last pair serves the run.
const setupRounds = 31

// setUp starts fresh pairs and times each from spawning the daemons to
// the first acknowledged replicated write.
func setUp(ctx context.Context, w *workload, bin, logDir string, ep transport.Endpoint) (*pair, []time.Duration, error) {
	var times []time.Duration
	for i := 0; i < setupRounds; i++ {
		p, err := newPair(w, bin, logDir)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := p.start(ctx); err != nil {
			p.stop()
			return nil, nil, err
		}
		opts := []rpc.ClientOption{}
		if id := w.shardIDs()[0]; id != "" {
			opts = append(opts, rpc.WithGroup(id))
		}
		c := rpc.NewClient(fmt.Sprintf("setup%d", i), ep, p.replicas(), opts...)
		var acked time.Time
		for acked.IsZero() {
			if ctx.Err() != nil || p.d[0].exited() || p.d[1].exited() {
				p.stop()
				return nil, nil, fmt.Errorf("no replicated write: daemon exited or %v", ctx.Err())
			}
			if _, err := c.Invoke(ctx, "set:"+regName(0), ftm.EncodeArg(0)); err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			if t := time.Now(); p.replicated() {
				acked = t
			}
		}
		times = append(times, acked.Sub(t0))
		if i < setupRounds-1 {
			p.stop()
			continue
		}
		return p, times, nil
	}
	return nil, nil, errors.New("no set-up rounds")
}

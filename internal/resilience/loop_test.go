package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/monitor"
	"resilientft/internal/telemetry"
)

// The tests below drive the one resilience loop the health and SLO
// signals share: probe → monitor rule → trigger → Figure 8 edge checked
// against (FT, A, R) → transition.

const hostUnhealthy = "host-unhealthy"

// healthLoop wires a master's measured health into svc: an Unhealthy
// verdict fires bandwidth-drop, shedding PBR's checkpoint channel.
func healthLoop(svc *Service, hm *host.HealthMonitor) *monitor.Engine {
	mon := monitor.New(time.Hour, svc.Sink())
	mon.AddProbe(monitor.HealthProbe("master-health", hm))
	mon.AddRule(monitor.Rule{
		Name: hostUnhealthy, Probe: "master-health", Cond: monitor.Above, Threshold: 1.5,
		Trigger: core.TrigBandwidthDrop,
	})
	return mon
}

func loopService(target Target, traits core.AppTraits) *Service {
	return New(Config{
		Target:     target,
		FaultModel: core.NewFaultModel(core.FaultCrash),
		Traits:     traits,
		Manager:    &Reverter{},
	})
}

func decisionCount(shard string, action Action) uint64 {
	if c, ok := telemetry.Default().FindCounter("resilience_decisions_total", "shard", shard, "action", string(action)); ok {
		return c.Value()
	}
	return 0
}

func loopInvoke(t *testing.T, sys *ftm.System, op string, arg int64) int64 {
	t.Helper()
	c, err := sys.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Invoke(context.Background(), op, ftm.EncodeArg(arg))
	if err != nil {
		t.Fatalf("Invoke(%s, %d): %v", op, arg, err)
	}
	v, err := ftm.DecodeResult(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHealthLoopDegradesPBRToLFR: a PBR system whose master host
// measures Unhealthy transitions to LFR through the mandatory Figure 8
// edge, driven by the health sweep, with the decision counted and
// traced under the rule that fired. A second poll is a no-op
// (edge-triggered, no storm) and the data survives.
func TestHealthLoopDegradesPBRToLFR(t *testing.T) {
	svc, sys := newService(t, core.PBR, &Reverter{})
	loopInvoke(t, sys, "set:x", 7)
	hm := sys.Master().Host().Health()
	mon := healthLoop(svc, hm)

	// Healthy master: no action.
	hm.Check()
	mon.Poll()
	if n := len(svc.Decisions()); n != 0 {
		t.Fatalf("loop decided on a healthy master: %v", svc.Decisions())
	}

	// Starve the master host's energy; the next sweep measures
	// Unhealthy and the loop sheds PBR.
	executed := decisionCount("default", ActionTransition)
	mark := telemetry.DefaultTracer().Mark()
	sys.Master().Host().Resources().SetEnergy(0.01)
	if v := hm.Check(); v != host.Unhealthy {
		t.Fatalf("starved master measured %s", v)
	}
	mon.Poll()

	ds := svc.Decisions()
	if len(ds) != 1 || ds[0].Action != ActionTransition || ds[0].Rule != hostUnhealthy ||
		ds[0].Edge == nil || ds[0].Edge.Kind != core.Mandatory {
		t.Fatalf("decisions = %v, want one mandatory transition by %s", ds, hostUnhealthy)
	}
	for _, r := range sys.Replicas() {
		if r.FTM() != core.LFR {
			t.Fatalf("replica %s FTM = %s, want lfr", r.Host().Name(), r.FTM())
		}
	}
	if v := decisionCount("default", ActionTransition); v != executed+1 {
		t.Fatalf("executed decisions = %d, want %d", v, executed+1)
	}
	var traced bool
	for _, e := range telemetry.DefaultTracer().Since(mark) {
		if e.Kind == "resilience" && e.Name == string(ActionTransition) && e.Attrs["to"] == "lfr" {
			traced = true
			if e.Attrs["rule"] != hostUnhealthy || e.Attrs["trigger"] != string(core.TrigBandwidthDrop) {
				t.Fatalf("decision traced without its cause: %v", e.Attrs)
			}
		}
	}
	if !traced {
		t.Fatal("transition decision emitted no trace event")
	}

	// Still unhealthy, already in LFR: no second decision.
	hm.Check()
	mon.Poll()
	if n := len(svc.Decisions()); n != 1 {
		t.Fatalf("loop re-fired in the target FTM: %v", svc.Decisions())
	}

	// The system still serves after the health-driven transition.
	if got := loopInvoke(t, sys, "get:x", 0); got != 7 {
		t.Fatalf("get:x = %d after degrade transition, want 7", got)
	}
}

// TestHealthLoopDegradesOneShard starves one shard's master and checks
// the per-shard loops act exactly there: the starved group sheds PBR
// for LFR, the others keep checkpointing, and the decision lands on the
// shard-labeled series of that shard only.
func TestHealthLoopDegradesOneShard(t *testing.T) {
	s, err := ftm.NewShardedSystem(context.Background(), ftm.ShardedConfig{
		System:            "calc",
		FTM:               core.PBR,
		Shards:            3,
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)

	svcs := make([]*Service, 0, 3)
	mons := make([]*monitor.Engine, 0, 3)
	for _, g := range s.Groups() {
		svc := loopService(SystemTarget(nil, g), TraitsOf(g.Master().App()))
		svcs = append(svcs, svc)
		mons = append(mons, healthLoop(svc, g.Master().Host().Health()))
	}
	sweep := func() []string {
		var acted []string
		for k, g := range s.Groups() {
			before := len(svcs[k].Decisions())
			g.Master().Host().Health().Check()
			mons[k].Poll()
			if len(svcs[k].Decisions()) > before {
				acted = append(acted, s.IDs()[k])
			}
		}
		return acted
	}

	// All healthy: a sweep does nothing.
	if acted := sweep(); len(acted) != 0 {
		t.Fatalf("healthy sweep acted on %v", acted)
	}

	// Starve shard 1's master.
	s.Group(1).Master().Host().Resources().SetCPUFree(0.01)
	if acted := sweep(); len(acted) != 1 || acted[0] != "1" {
		t.Fatalf("acted = %v, want [1]", acted)
	}
	for k, want := range []core.ID{core.PBR, core.LFR, core.PBR} {
		if got := s.Group(k).Master().FTM(); got != want {
			t.Fatalf("shard %d FTM = %s, want %s", k, got, want)
		}
	}

	// Edge-triggered: the verdict persists but the decision does not
	// repeat.
	if acted := sweep(); len(acted) != 0 {
		t.Fatalf("repeat sweep re-acted: %v", acted)
	}

	if decisionCount("1", ActionTransition) == 0 {
		t.Fatal("shard-labeled transition decision not recorded")
	}
	for _, shard := range []string{"0", "2"} {
		if _, ok := telemetry.Default().FindCounter("resilience_decisions_total", "shard", shard, "action", string(ActionTransition)); ok {
			t.Fatalf("healthy shard %s carries a transition decision", shard)
		}
	}
}

// fakeSLO is a shard's SLO standing as the loop's probes read it.
type fakeSLO struct {
	paging bool
	budget float64
	clean  bool
}

func (f *fakeSLO) page() { f.paging, f.budget, f.clean = true, 0.1, false }

func (f *fakeSLO) recover(budget float64) { f.paging, f.budget, f.clean = false, budget, true }

const sloQuietPolls = 3

// sloLoop wires a shard's paging and recovered budget into svc, the
// shape resilientd builds per replica with -slo-degrade.
func sloLoop(svc *Service, src *fakeSLO) *monitor.Engine {
	mon := monitor.New(time.Hour, svc.Sink())
	mon.AddProbe(monitor.SLOBreachProbe("page", func() bool { return src.paging }))
	mon.AddProbe(monitor.SLOBudgetProbe("budget", func() (float64, bool) { return src.budget, src.clean }))
	mon.AddRule(monitor.Rule{
		Name: "slo-page-g0", Probe: "page", Cond: monitor.Above, Threshold: 0.5,
		Trigger: core.TrigBandwidthDrop,
	})
	mon.AddRule(monitor.Rule{
		Name: "slo-recovered-g0", Probe: "budget", Cond: monitor.Above, Threshold: 0.5,
		Consecutive: sloQuietPolls, Trigger: core.TrigBandwidthIncrease,
	})
	return mon
}

// fakeTarget holds an FTM without live replicas, so the loop's decision
// logic is tested on its own.
type fakeTarget struct {
	mu          sync.Mutex
	ftm         core.ID
	transitions []core.ID
	failNext    error
}

func (f *fakeTarget) Group() string { return "g0" }

func (f *fakeTarget) FTM() (core.ID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ftm, nil
}

func (f *fakeTarget) Transition(_ context.Context, to core.ID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.failNext; err != nil {
		f.failNext = nil
		return err
	}
	f.ftm = to
	f.transitions = append(f.transitions, to)
	return nil
}

func (f *fakeTarget) history() []core.ID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]core.ID(nil), f.transitions...)
}

func newSLOLoop(start core.ID) (*fakeTarget, *fakeSLO, *Service, *monitor.Engine) {
	target := &fakeTarget{ftm: start}
	src := &fakeSLO{budget: 1, clean: true}
	svc := loopService(target, core.AppTraits{Deterministic: true, StateAccess: true})
	return target, src, svc, sloLoop(svc, src)
}

func polls(mon *monitor.Engine, n int) {
	for i := 0; i < n; i++ {
		mon.Poll()
	}
}

func TestSLOPageDegradesOncePerEpisode(t *testing.T) {
	target, src, svc, mon := newSLOLoop(core.PBR)
	polls(mon, sloQuietPolls) // full budget on PBR: nothing to revert

	src.page()
	mon.Poll()
	if got := target.history(); len(got) != 1 || got[0] != core.LFR {
		t.Fatalf("transitions = %v, want [lfr]", got)
	}
	last := svc.Decisions()[len(svc.Decisions())-1]
	if last.Rule != "slo-page-g0" || last.Action != ActionTransition {
		t.Fatalf("degrade decision = %v", last)
	}

	// Still paging, already degraded: no second transition.
	polls(mon, 3)
	// A new paging episode before recovery finds no edge out of LFR.
	src.recover(0.2)
	mon.Poll()
	src.page()
	mon.Poll()
	if got := target.history(); len(got) != 1 {
		t.Fatalf("transitions = %v, want exactly one", got)
	}
	last = svc.Decisions()[len(svc.Decisions())-1]
	if last.Action != ActionNone || last.From != core.StLFRState {
		t.Fatalf("second episode decision = %v, want no-edge from LFR", last)
	}
}

func TestSLORecoveryHysteresis(t *testing.T) {
	target, src, _, mon := newSLOLoop(core.PBR)
	src.page()
	mon.Poll()
	if got := target.history(); len(got) != 1 {
		t.Fatalf("no degrade: %v", got)
	}

	// Each gate alone must hold recovery back for longer than the
	// quiet period.
	cases := []struct {
		name string
		set  func()
	}{
		{"still paging", src.page},
		{"warn grade", func() { src.paging, src.budget, src.clean = false, 0.9, false }},
		{"budget low", func() { src.recover(0.4) }},
	}
	for _, tc := range cases {
		tc.set()
		polls(mon, 2*sloQuietPolls)
		if got := target.history(); len(got) != 1 {
			t.Fatalf("%s: recovered through a closed gate: %v", tc.name, got)
		}
	}
	// Too soon: the gates open, but the quiet period has not elapsed.
	src.recover(0.9)
	polls(mon, sloQuietPolls-1)
	if got := target.history(); len(got) != 1 {
		t.Fatalf("too soon: recovered before the quiet period: %v", got)
	}

	// The quiet period completes: recover once, back to the original FTM.
	mon.Poll()
	if got := target.history(); len(got) != 2 || got[1] != core.PBR {
		t.Fatalf("transitions = %v, want [lfr pbr]", got)
	}

	// Fully recovered: idle.
	polls(mon, 2*sloQuietPolls)
	if got := target.history(); len(got) != 2 {
		t.Fatalf("acted after full recovery: %v", got)
	}
}

func TestSLORecoveryRetriesAfterFailedTransition(t *testing.T) {
	target, src, svc, mon := newSLOLoop(core.PBR)
	src.page()
	mon.Poll()

	src.recover(0.9)
	target.mu.Lock()
	target.failNext = errors.New("transition refused")
	target.mu.Unlock()
	polls(mon, sloQuietPolls)
	last := svc.Decisions()[len(svc.Decisions())-1]
	if last.Action != ActionFailed || last.Rule != "slo-recovered-g0" {
		t.Fatalf("failed recovery decision = %v", last)
	}
	// The failed trigger re-armed its rule: the next poll retries.
	mon.Poll()
	if got := target.history(); len(got) != 2 || got[1] != core.PBR {
		t.Fatalf("transitions = %v, want [lfr pbr]", got)
	}
}

func TestSLORecoveryOnlyRevertsOwnDegrade(t *testing.T) {
	target, _, svc, mon := newSLOLoop(core.LFR)
	polls(mon, 2*sloQuietPolls)
	if got := target.history(); len(got) != 0 {
		t.Fatalf("a replica that started in LFR was moved: %v", got)
	}
	ds := svc.Decisions()
	if len(ds) != 1 || ds[0].Action != ActionDeclined || ds[0].Edge.To != core.StPBRDet {
		t.Fatalf("decisions = %v, want one declined LFR -> PBR edge", ds)
	}
}

// TestNonDeterministicAppNotMovedByPressure pins the defect the bespoke
// reactors had: LFR needs determinism, and Figure 8 has no edge out of
// PBR(non-det) for bandwidth-drop, so neither a starved master nor a
// paging shard may move a non-deterministic application off PBR. The
// service records why, and the deployed FTM keeps its A assumptions.
func TestNonDeterministicAppNotMovedByPressure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rule     string
		pressure func(sys *ftm.System, mon *monitor.Engine)
	}{
		{"host-unhealthy", hostUnhealthy, func(sys *ftm.System, mon *monitor.Engine) {
			hm := sys.Master().Host().Health()
			mon.AddProbe(monitor.HealthProbe("master-health", hm))
			mon.AddRule(monitor.Rule{Name: hostUnhealthy, Probe: "master-health", Cond: monitor.Above,
				Threshold: 1.5, Trigger: core.TrigBandwidthDrop})
			sys.Master().Host().Resources().SetEnergy(0.01)
			hm.Check()
		}},
		{"slo-page", "slo-page-default", func(_ *ftm.System, mon *monitor.Engine) {
			mon.AddProbe(monitor.SLOBreachProbe("page", func() bool { return true }))
			mon.AddRule(monitor.Rule{Name: "slo-page-default", Probe: "page", Cond: monitor.Above,
				Threshold: 0.5, Trigger: core.TrigBandwidthDrop})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := ftm.NewSystem(context.Background(), ftm.SystemConfig{
				System:            "nondet",
				FTM:               core.PBR,
				AppFactory:        func() ftm.Application { return ftm.NonDeterministic{Application: ftm.NewCalculator()} },
				HeartbeatInterval: time.Hour,
				SuspectTimeout:    24 * time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sys.Shutdown)
			svc := loopService(SystemTarget(nil, sys), TraitsOf(sys.Master().App()))
			mon := monitor.New(time.Hour, svc.Sink())
			tc.pressure(sys, mon)
			mon.Poll()

			for _, r := range sys.Replicas() {
				if r.FTM() != core.PBR {
					t.Fatalf("replica %s moved to %s", r.Host().Name(), r.FTM())
				}
			}
			ds := svc.Decisions()
			if len(ds) != 1 || ds[0].Rule != tc.rule || ds[0].Action != ActionNone || ds[0].From != core.StPBRNonDet {
				t.Fatalf("decisions = %v, want one no-edge decision from PBR/non-determinism", ds)
			}
			// The pressure itself is recorded against PBR (its checkpoint
			// channel is under a bandwidth-drop), but no A assumption of
			// the deployed FTM is violated.
			inc, err := svc.CheckConsistency()
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range inc {
				if i.Param != "R" {
					t.Fatalf("deployed FTM inconsistent: %v", inc)
				}
			}
		})
	}
}

func TestDecisionLogBounded(t *testing.T) {
	target := &fakeTarget{ftm: core.PBR}
	svc := loopService(target, core.AppTraits{Deterministic: true, StateAccess: true})
	ctx := context.Background()
	const extra = 10
	for i := 0; i < maxDecisions+extra; i++ {
		target.mu.Lock()
		target.failNext = errors.New("refused")
		target.mu.Unlock()
		svc.handle(ctx, fmt.Sprintf("r%d", i), core.TrigBandwidthDrop)
	}
	ds := svc.Decisions()
	if len(ds) != maxDecisions {
		t.Fatalf("decision log holds %d entries, want %d", len(ds), maxDecisions)
	}
	for k, d := range ds {
		if want := fmt.Sprintf("r%d", k+extra); d.Rule != want {
			t.Fatalf("decision %d is %s, want %s (newest entries, in order)", k, d.Rule, want)
		}
	}
}

func TestTraitsOf(t *testing.T) {
	calc := ftm.NewCalculator()
	for _, tc := range []struct {
		name string
		app  ftm.Application
		want core.AppTraits
	}{
		{"calculator", calc, core.AppTraits{Deterministic: true, StateAccess: true}},
		{"non-deterministic", ftm.NonDeterministic{Application: calc}, core.AppTraits{Deterministic: false, StateAccess: true}},
		{"opaque", ftm.Opaque{Application: calc}, core.AppTraits{Deterministic: true, StateAccess: false}},
		{"opaque non-deterministic", ftm.NonDeterministic{Application: ftm.Opaque{Application: calc}}, core.AppTraits{}},
	} {
		if got := TraitsOf(tc.app); got != tc.want {
			t.Errorf("%s: TraitsOf = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

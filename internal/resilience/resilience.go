// Package resilience implements the Resilience Management Service: it
// owns the system's (FT, A, R) model, checks the deployed FTM's
// consistency against it, maps adaptation triggers onto the Figure 8
// scenario graph, and drives the Adaptation Engine — automatically for
// mandatory transitions, through the system manager (man-in-the-loop)
// for possible ones. The mandatory/possible asymmetry plus the manager
// gate is what prevents FTM oscillation (§5.4).
package resilience

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"resilientft/internal/adaptation"
	"resilientft/internal/appstate"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/rpc"
	"resilientft/internal/telemetry"
)

// SystemManager is the man-in-the-loop deciding whether to execute a
// possible (non-mandatory) transition.
type SystemManager interface {
	// ApprovePossible is consulted before executing a possible
	// transition.
	ApprovePossible(edge core.ScenarioEdge) bool
}

// AutoApprove approves every possible transition (fully autonomous
// operation).
type AutoApprove struct{}

// ApprovePossible always returns true.
func (AutoApprove) ApprovePossible(core.ScenarioEdge) bool { return true }

// Conservative declines every possible transition (only mandatory
// transitions execute).
type Conservative struct{}

// ApprovePossible always returns false.
func (Conservative) ApprovePossible(core.ScenarioEdge) bool { return false }

// ManagerFunc adapts a function to the SystemManager interface.
type ManagerFunc func(edge core.ScenarioEdge) bool

// ApprovePossible calls the function.
func (f ManagerFunc) ApprovePossible(edge core.ScenarioEdge) bool { return f(edge) }

// Reverter is the system manager of an automatic loop: it approves a
// possible transition only when that transition reverses the last
// mandatory transition the service executed. An adaptation the loop
// made is undone once its cause clears; a deployment that started in
// the cheaper FTM is never moved by it. The zero value is ready to use.
type Reverter struct {
	mu   sync.Mutex
	last *core.ScenarioEdge
}

// ApprovePossible approves the reverse of the last executed mandatory
// transition.
func (r *Reverter) ApprovePossible(edge core.ScenarioEdge) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last != nil && edge.From == r.last.To && edge.To == r.last.From
}

// executed records a transition the service carried out: a mandatory
// one becomes revertible, a possible one (the revert) consumes it.
func (r *Reverter) executed(edge core.ScenarioEdge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if edge.Kind == core.Mandatory {
		r.last = &edge
	} else {
		r.last = nil
	}
}

// Target is the deployment a service adapts: it reports the deployed
// FTM and carries out transitions through the Adaptation Engine.
type Target interface {
	// Group is the replica group (shard) protected; empty when
	// unsharded.
	Group() string
	// FTM returns the deployed mechanism.
	FTM() (core.ID, error)
	// Transition moves the deployment to the FTM to.
	Transition(ctx context.Context, to core.ID) error
}

// SystemTarget adapts both replicas of a two-replica system (a fresh
// engine when eng is nil).
func SystemTarget(eng *adaptation.Engine, sys *ftm.System) Target {
	if eng == nil {
		eng = adaptation.NewEngine(nil)
	}
	return systemTarget{eng: eng, sys: sys}
}

type systemTarget struct {
	eng *adaptation.Engine
	sys *ftm.System
}

func (t systemTarget) Group() string { return t.sys.Replicas()[0].Group() }

// FTM reads the live master's mechanism, or a surviving replica's
// mid-failover.
func (t systemTarget) FTM() (core.ID, error) {
	if m := t.sys.Master(); m != nil {
		return m.FTM(), nil
	}
	for _, r := range t.sys.Replicas() {
		if r != nil && !r.Host().Crashed() {
			return r.FTM(), nil
		}
	}
	return "", fmt.Errorf("resilience: no live replica")
}

func (t systemTarget) Transition(ctx context.Context, to core.ID) error {
	_, err := t.eng.TransitionSystem(ctx, t.sys, to)
	return err
}

// ReplicaTarget adapts one daemon replica (a fresh engine when eng is
// nil): each process transitions its own replica, peers run their own
// loops.
func ReplicaTarget(eng *adaptation.Engine, r *ftm.Replica) Target {
	if eng == nil {
		eng = adaptation.NewEngine(nil)
	}
	return replicaTarget{eng: eng, r: r}
}

type replicaTarget struct {
	eng *adaptation.Engine
	r   *ftm.Replica
}

func (t replicaTarget) Group() string { return t.r.Group() }

func (t replicaTarget) FTM() (core.ID, error) {
	if t.r.Host().Crashed() {
		return "", fmt.Errorf("resilience: replica %s crashed", t.r.Host().Name())
	}
	return t.r.FTM(), nil
}

func (t replicaTarget) Transition(ctx context.Context, to core.ID) error {
	return t.eng.TransitionReplica(ctx, t.r, to).Err
}

// TraitsOf derives the A characteristics from the protected
// application itself: its declared determinism, and state access
// unless its state manager is opaque.
func TraitsOf(app ftm.Application) core.AppTraits {
	_, opaque := app.StateManager().(appstate.Opaque)
	return core.AppTraits{Deterministic: app.Deterministic(), StateAccess: !opaque}
}

// Action classifies the outcome of handling one trigger.
type Action string

// Actions.
const (
	// ActionTransition reports an executed inter-FTM transition.
	ActionTransition Action = "transition-executed"
	// ActionDeclined reports a possible transition the manager declined.
	ActionDeclined Action = "possible-declined"
	// ActionIntra reports an intra-FTM reconfiguration.
	ActionIntra Action = "intra-ftm"
	// ActionNone reports a trigger with no matching scenario edge.
	ActionNone Action = "no-edge"
	// ActionDeadEnd reports a transition into the no-generic-solution
	// state: the application runs unprotected until characteristics
	// change.
	ActionDeadEnd Action = "no-generic-solution"
	// ActionFailed reports a transition that failed to execute.
	ActionFailed Action = "transition-failed"
)

// Decision records how one trigger was handled.
type Decision struct {
	// Rule names the monitoring rule that fired the trigger (empty for
	// a trigger handed in directly).
	Rule    string
	Trigger core.Trigger
	From    core.ScenState
	Edge    *core.ScenarioEdge
	Action  Action
	FromFTM core.ID
	ToFTM   core.ID
	// Inconsistencies lists (FT, A, R) violations of the FTM deployed
	// after handling the trigger (empty when consistent).
	Inconsistencies []core.Inconsistency
	Err             error
	At              time.Time
}

// String renders the decision.
func (d Decision) String() string {
	s := fmt.Sprintf("%s @ %s: %s", d.Trigger, d.From, d.Action)
	if d.Rule != "" {
		s = d.Rule + ": " + s
	}
	if d.Action == ActionTransition {
		s += fmt.Sprintf(" (%s -> %s)", d.FromFTM, d.ToFTM)
	}
	if d.Err != nil {
		s += " error: " + d.Err.Error()
	}
	return s
}

// Config assembles a resilience service.
type Config struct {
	// Target is the deployment adapted.
	Target Target
	// FaultModel is the initially required fault model.
	FaultModel core.FaultModel
	// Traits are the application's initial characteristics.
	Traits core.AppTraits
	// Resources is the initial resource state.
	Resources core.ResourceState
	// Thresholds partition the resource state (defaults apply when
	// zero).
	Thresholds core.Thresholds
	// Manager is the man-in-the-loop (Conservative when nil).
	Manager SystemManager
}

// maxDecisions bounds the decision log: a long-lived service whose
// failing trigger re-arms records a decision every poll.
const maxDecisions = 256

// Service is the Resilience Management Service.
type Service struct {
	mu        sync.Mutex
	target    Target
	ft        core.FaultModel
	traits    core.AppTraits
	res       core.ResourceState
	th        core.Thresholds
	manager   SystemManager
	decisions []Decision
	// deadEnd marks the no-generic-solution state: no FTM is deployed
	// conceptually (the last one remains attached but is known-invalid).
	deadEnd bool
}

// New returns a resilience service.
func New(cfg Config) *Service {
	if cfg.Manager == nil {
		cfg.Manager = Conservative{}
	}
	if cfg.Thresholds == (core.Thresholds{}) {
		cfg.Thresholds = core.DefaultThresholds()
	}
	if cfg.Resources.Hosts == 0 {
		cfg.Resources = core.ResourceState{BandwidthKbps: 10_000, CPUFree: 0.9, Energy: 1, Hosts: 2}
	}
	return &Service{
		target:  cfg.Target,
		ft:      cfg.FaultModel,
		traits:  cfg.Traits,
		res:     cfg.Resources,
		th:      cfg.Thresholds,
		manager: cfg.Manager,
	}
}

// Sink returns a trigger sink for the monitoring engine: each fired
// rule is handled with a background context and recorded under the
// rule's name. A failed transition re-arms the rule, so the next poll
// that still sees the condition retries it.
func (s *Service) Sink() func(rule string, t core.Trigger) bool {
	return func(rule string, t core.Trigger) bool {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return s.handle(ctx, rule, t).Action == ActionFailed
	}
}

// Decisions returns the decision log, oldest first: the newest
// maxDecisions entries.
func (s *Service) Decisions() []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Decision(nil), s.decisions...)
}

// Model returns the service's current (FT, A, R) view.
func (s *Service) Model() (core.FaultModel, core.AppTraits, core.ResourceState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ft, s.traits, s.res
}

// SetResources replaces the resource view (called by monitoring glue
// that knows actual values; triggers alone apply default magnitudes).
func (s *Service) SetResources(r core.ResourceState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res = r
}

// CheckConsistency validates the deployed FTM against the current
// (FT, A, R) model.
func (s *Service) CheckConsistency() ([]core.Inconsistency, error) {
	id, err := s.target.FTM()
	if err != nil {
		return nil, err
	}
	desc, err := core.Lookup(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	ft, traits, res, th := s.ft, s.traits, s.res, s.th
	s.mu.Unlock()
	return core.Validate(desc, ft, traits, res, th), nil
}

// applyTrigger folds a trigger's semantics into the (FT, A, R) model.
// R triggers apply representative magnitudes; callers with exact values
// use SetResources first.
func (s *Service) applyTrigger(t core.Trigger) {
	switch t {
	case core.TrigBandwidthDrop:
		if s.res.BandwidthKbps >= s.th.LowBandwidthKbps {
			s.res.BandwidthKbps = s.th.LowBandwidthKbps / 2
		}
	case core.TrigBandwidthIncrease:
		if s.res.BandwidthKbps < s.th.LowBandwidthKbps {
			s.res.BandwidthKbps = s.th.LowBandwidthKbps * 5
		}
	case core.TrigCPUDrop:
		if s.res.CPUFree >= s.th.LowCPUFree {
			s.res.CPUFree = s.th.LowCPUFree / 2
		}
	case core.TrigCPUIncrease:
		if s.res.CPUFree < 0.9 {
			s.res.CPUFree = 0.9
		}
	case core.TrigStateAccessLoss:
		s.traits.StateAccess = false
	case core.TrigStateAccess:
		s.traits.StateAccess = true
	case core.TrigAppDeterminism:
		s.traits.Deterministic = true
	case core.TrigAppNonDeterminism:
		s.traits.Deterministic = false
	case core.TrigHardwareAging:
		s.ft = s.ft.With(core.FaultTransientValue)
	case core.TrigHardwareReplaced:
		s.ft = s.ft.Without(core.FaultTransientValue)
	case core.TrigCriticalPhase:
		s.ft = s.ft.With(core.FaultTransientValue, core.FaultPermanentValue)
	case core.TrigLessCriticalPhase:
		s.ft = s.ft.Without(core.FaultPermanentValue)
	}
}

// HandleTrigger processes one adaptation trigger: it updates the
// (FT, A, R) model, resolves the Figure 8 edge for the current state,
// and executes or declines the corresponding transition.
func (s *Service) HandleTrigger(ctx context.Context, trigger core.Trigger) Decision {
	return s.handle(ctx, "", trigger)
}

// handle decides one trigger, checks the resulting deployment's
// consistency, and records, counts and traces the decision.
func (s *Service) handle(ctx context.Context, rule string, trigger core.Trigger) Decision {
	d := s.decide(ctx, Decision{Rule: rule, Trigger: trigger, At: time.Now()})
	if inc, err := s.CheckConsistency(); err == nil {
		d.Inconsistencies = inc
	}
	shard := rpc.ShardLabel(s.target.Group())
	telemetry.Default().Counter("resilience_decisions_total", "shard", shard, "action", string(d.Action)).Inc()
	kv := []string{"shard", shard, "rule", rule, "trigger", string(trigger), "state", string(d.From),
		"from", string(d.FromFTM), "to", string(d.ToFTM)}
	if d.Err != nil {
		kv = append(kv, "err", d.Err.Error())
	}
	if len(d.Inconsistencies) > 0 {
		details := make([]string, len(d.Inconsistencies))
		for i, inc := range d.Inconsistencies {
			details[i] = inc.Param + ": " + inc.Detail
		}
		kv = append(kv, "inconsistencies", strings.Join(details, "; "))
	}
	telemetry.Emit("resilience", string(d.Action), 0, kv...)

	s.mu.Lock()
	s.decisions = append(s.decisions, d)
	if n := len(s.decisions); n > maxDecisions {
		s.decisions = s.decisions[n-maxDecisions:]
	}
	s.mu.Unlock()
	return d
}

// decide resolves the trigger in d against the Figure 8 edges leaving
// the deployed FTM's state and executes, declines or skips the edge.
func (s *Service) decide(ctx context.Context, d Decision) Decision {
	s.mu.Lock()
	state := core.StNone
	if !s.deadEnd {
		id, err := s.target.FTM()
		if err == nil {
			d.FromFTM = id
			state, err = core.StateFor(id, s.traits)
		}
		if err != nil {
			s.mu.Unlock()
			d.Err = err
			d.Action = ActionFailed
			return d
		}
	}
	d.From = state
	s.applyTrigger(d.Trigger)
	traits := s.traits

	var chosen, intra *core.ScenarioEdge
	for _, e := range core.Outgoing(state, d.Trigger) {
		switch e.Kind {
		case core.Mandatory, core.Possible:
			if chosen == nil {
				chosen = &e
			}
		case core.Intra:
			intra = &e
		}
	}
	manager := s.manager
	s.mu.Unlock()

	switch {
	case chosen == nil && intra == nil:
		d.Action = ActionNone
	case chosen == nil:
		d.Edge = intra
		d.Action = ActionIntra
	case chosen.Kind == core.Possible && !manager.ApprovePossible(*chosen):
		// Declined: fall back to the intra-FTM edge when one exists.
		d.Edge = chosen
		d.Action = ActionDeclined
		if intra != nil {
			d.Edge = intra
			d.Action = ActionIntra
		}
	default:
		d.Edge = chosen
		d = s.executeEdge(ctx, d, *chosen, traits)
		if r, ok := manager.(*Reverter); ok && d.Action == ActionTransition {
			r.executed(*chosen)
		}
	}
	return d
}

// executeEdge runs the transition an edge prescribes.
func (s *Service) executeEdge(ctx context.Context, d Decision, edge core.ScenarioEdge, traits core.AppTraits) Decision {
	if edge.To == core.StNone {
		s.mu.Lock()
		s.deadEnd = true
		s.mu.Unlock()
		d.Action = ActionDeadEnd
		return d
	}
	target, err := core.FTMFor(edge.To, traits)
	if err != nil {
		d.Action = ActionFailed
		d.Err = err
		return d
	}
	d.ToFTM = target
	if target == d.FromFTM && !s.isDeadEnd() {
		d.Action = ActionIntra
		return d
	}
	if err := s.target.Transition(ctx, target); err != nil {
		d.Action = ActionFailed
		d.Err = err
		return d
	}
	s.mu.Lock()
	s.deadEnd = false
	s.mu.Unlock()
	d.Action = ActionTransition
	return d
}

func (s *Service) isDeadEnd() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadEnd
}

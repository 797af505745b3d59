package adaptation

import (
	"fmt"

	"resilientft/internal/host"
	"resilientft/internal/telemetry"
)

// Health-fed placement: the decision below consumes the graded host
// health model (worst-of collector verdicts, freshly measured) instead
// of declared resource numbers — an Unhealthy host is not given a
// slave. Every decision is counted and traced. FTM selection from
// measured health is the resilience package's job: health verdicts are
// monitor probes whose rules feed its (FT, A, R) check.

// decided records one placement decision on the event trace and on the
// decision series: split by kind, and per replica group so a sharded
// deployment's dashboards attribute placements to shards.
func decided(group, decision string, kv ...string) {
	telemetry.Default().Counter("adaptation_health_decision_total", "decision", decision).Inc()
	if group != "" {
		telemetry.Default().Counter("adaptation_shard_decision_total", "shard", group, "decision", decision).Inc()
		kv = append(kv, "shard", group)
	}
	telemetry.Emit("adaptation", decision, 0, kv...)
}

// ErrNoHealthyHost reports that every placement candidate measured
// Unhealthy.
var ErrNoHealthyHost = fmt.Errorf("adaptation: no healthy candidate host")

// ChooseSlaveHost picks the healthiest candidate for slave placement in
// one replica group (empty: unsharded), running each candidate's
// collectors for a fresh verdict. Unhealthy hosts are never chosen
// (each avoidance is a counted decision, attributed to the group on the
// shard-labeled series); among the rest the best verdict wins, earliest
// candidate breaking ties, so a Degraded host is still usable when
// nothing Healthy remains. With only Unhealthy candidates it returns
// ErrNoHealthyHost — refusing a placement is itself the decision.
func ChooseSlaveHost(group string, candidates []*host.Host) (*host.Host, error) {
	var best *host.Host
	bestVerdict := host.Unhealthy
	for _, h := range candidates {
		if h == nil || h.Crashed() {
			continue
		}
		v := h.Health().Check()
		if v == host.Unhealthy {
			decided(group, "avoid-unhealthy",
				"host", h.Name(), "verdict", v.String(),
				"cause", lastCause(h.Health()))
			continue
		}
		if best == nil || v < bestVerdict {
			best, bestVerdict = h, v
		}
	}
	if best == nil {
		return nil, ErrNoHealthyHost
	}
	decided(group, "place-slave",
		"host", best.Name(), "verdict", bestVerdict.String())
	return best, nil
}

// lastCause extracts the newest transition cause from a health report,
// for decision traces.
func lastCause(hm *host.HealthMonitor) string {
	rep := hm.Report()
	if n := len(rep.Transitions); n > 0 {
		return rep.Transitions[n-1].Cause
	}
	return ""
}

package adaptation

import (
	"context"
	"testing"
	"time"

	"resilientft/internal/component"
	"resilientft/internal/core"
	"resilientft/internal/ftm"
	"resilientft/internal/host"
	"resilientft/internal/telemetry"
	"resilientft/internal/transport"
)

func healthTestHost(t *testing.T, name string) *host.Host {
	t.Helper()
	h, err := host.New(name, transport.NewMemNetwork(), component.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestChooseSlaveHostAvoidsUnhealthy: placement driven by a measured
// verdict — the candidate with starved CPU is skipped even though it
// comes first, and the avoidance is a counted, traced decision.
func TestChooseSlaveHostAvoidsUnhealthy(t *testing.T) {
	sick := healthTestHost(t, "sick")
	sick.Resources().SetCPUFree(0.01) // measured Unhealthy
	well := healthTestHost(t, "well")

	avoided := telemetry.Default().Counter("adaptation_health_decision_total", "decision", "avoid-unhealthy").Value()
	placed := telemetry.Default().Counter("adaptation_health_decision_total", "decision", "place-slave").Value()
	mark := telemetry.DefaultTracer().Mark()

	got, err := ChooseSlaveHost("", []*host.Host{sick, well})
	if err != nil {
		t.Fatal(err)
	}
	if got != well {
		t.Fatalf("placed slave on %s, want the healthy host", got.Name())
	}
	if v := telemetry.Default().Counter("adaptation_health_decision_total", "decision", "avoid-unhealthy").Value(); v != avoided+1 {
		t.Fatalf("avoid-unhealthy decisions = %d, want %d", v, avoided+1)
	}
	if v := telemetry.Default().Counter("adaptation_health_decision_total", "decision", "place-slave").Value(); v != placed+1 {
		t.Fatalf("place-slave decisions = %d, want %d", v, placed+1)
	}
	var traced bool
	for _, e := range telemetry.DefaultTracer().Since(mark) {
		if e.Kind == "adaptation" && e.Name == "avoid-unhealthy" && e.Attrs["host"] == "sick" {
			traced = true
		}
	}
	if !traced {
		t.Fatal("placement avoidance emitted no trace event")
	}
}

func TestChooseSlaveHostPrefersHealthyOverDegraded(t *testing.T) {
	degraded := healthTestHost(t, "tired")
	degraded.Resources().SetEnergy(0.1) // Degraded, not Unhealthy
	healthy := healthTestHost(t, "fresh")

	got, err := ChooseSlaveHost("", []*host.Host{degraded, healthy})
	if err != nil {
		t.Fatal(err)
	}
	if got != healthy {
		t.Fatalf("placed slave on %s, want the healthy host over the degraded one", got.Name())
	}

	// With only the degraded host left it is still usable.
	got, err = ChooseSlaveHost("", []*host.Host{degraded})
	if err != nil {
		t.Fatal(err)
	}
	if got != degraded {
		t.Fatalf("placed slave on %s, want the degraded host as last resort", got.Name())
	}
}

func TestChooseSlaveHostRefusesWhenAllUnhealthy(t *testing.T) {
	sick := healthTestHost(t, "sick2")
	sick.Resources().SetCPUFree(0.0)
	if _, err := ChooseSlaveHost("", []*host.Host{sick, nil}); err != ErrNoHealthyHost {
		t.Fatalf("err = %v, want ErrNoHealthyHost", err)
	}
}

// TestChooseSlaveHostForLabelsDecisions checks that placement in a
// named replica group records its avoidances and choice per shard.
func TestChooseSlaveHostForLabelsDecisions(t *testing.T) {
	s, err := ftm.NewShardedSystem(context.Background(), ftm.ShardedConfig{
		System:            "place",
		FTM:               core.PBR,
		Shards:            1,
		HeartbeatInterval: time.Hour,
		SuspectTimeout:    24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)

	hosts := s.Group(0).Hosts()
	hosts[0].Resources().SetCPUFree(0.01) // unhealthy: must be avoided
	got, err := ChooseSlaveHost("0", []*host.Host{hosts[0], hosts[1]})
	if err != nil {
		t.Fatal(err)
	}
	if got != hosts[1] {
		t.Fatalf("chose %s, want %s", got.Name(), hosts[1].Name())
	}
	for _, decision := range []string{"avoid-unhealthy", "place-slave"} {
		c, ok := telemetry.Default().FindCounter("adaptation_shard_decision_total", "shard", "0", "decision", decision)
		if !ok || c.Value() == 0 {
			t.Fatalf("shard-labeled %s decision not recorded", decision)
		}
	}
}

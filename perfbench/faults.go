package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"resilientft/internal/core"
	"resilientft/internal/mgmt"
	"resilientft/internal/transport"
)

// faultPlan drives one run's seeded transitions and kills from start,
// finishing by until, and returns what it did.
type faultPlan func(r *runState, ctx context.Context, start, until time.Time, rng *rand.Rand) ([]transition, []kill, error)

func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	return time.Duration(rng.Int63n(int64(max)))
}

// roundTrip runs LFR→PBR, a PBR dwell, then PBR→LFR.
func (r *runState) roundTrip(ctx context.Context, rng *rand.Rand) ([]transition, error) {
	var out []transition
	for _, to := range []core.ID{"pbr", "lfr"} {
		t, err := r.transitionBoth(ctx, to)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if to == "pbr" {
			if err := pause(ctx, 400*time.Millisecond+jitter(rng, 400*time.Millisecond)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// killThenAdapt kills the master once, early, restarts it as slave,
// and then runs transition round trips until its deadline. No failover
// follows a rejoin or a round trip, which is where the two defects that
// killCycles reaches lie (README.md, findings 4 and 5).
func killThenAdapt(r *runState, ctx context.Context, start, until time.Time, rng *rand.Rand) ([]transition, []kill, error) {
	if err := pause(ctx, time.Until(start.Add(300*time.Millisecond+jitter(rng, 300*time.Millisecond)))); err != nil {
		return nil, nil, err
	}
	k, err := r.killMaster(ctx)
	if err != nil {
		return nil, nil, err
	}
	var transitions []transition
	// A round trip with its pauses takes about a second.
	for len(transitions) == 0 || time.Now().Add(1500*time.Millisecond).Before(until) {
		if err := pause(ctx, 200*time.Millisecond+jitter(rng, 300*time.Millisecond)); err != nil {
			return nil, nil, err
		}
		ts, err := r.roundTrip(ctx, rng)
		if err != nil {
			return nil, nil, err
		}
		transitions = append(transitions, ts...)
	}
	return transitions, []kill{k}, nil
}

// killCycles runs cycles of [LFR→PBR, PBR dwell, PBR→LFR, kill the
// master, restart it as slave] with seeded offsets inside each cycle,
// as many as fit before until.
func killCycles(r *runState, ctx context.Context, start, until time.Time, rng *rand.Rand) ([]transition, []kill, error) {
	const cycle = 4500 * time.Millisecond
	cycles := int(until.Sub(start) / cycle)
	if cycles < 1 {
		cycles = 1
	}
	var (
		transitions []transition
		kills       []kill
	)
	for c := 0; c < cycles; c++ {
		base := start.Add(time.Duration(c) * cycle)
		if err := pause(ctx, time.Until(base.Add(300*time.Millisecond+jitter(rng, 300*time.Millisecond)))); err != nil {
			return nil, nil, err
		}
		ts, err := r.roundTrip(ctx, rng)
		if err != nil {
			return nil, nil, err
		}
		transitions = append(transitions, ts...)
		if err := pause(ctx, time.Until(base.Add(2000*time.Millisecond+jitter(rng, 500*time.Millisecond)))); err != nil {
			return nil, nil, err
		}
		k, err := r.killMaster(ctx)
		if err != nil {
			return nil, nil, err
		}
		kills = append(kills, k)
	}
	return transitions, kills, nil
}

// transitionBoth moves both replicas to another FTM the way an operator
// does with `ftmctl -target <master> -peer <slave> transition <ftm>`.
func (r *runState) transitionBoth(ctx context.Context, to core.ID) (transition, error) {
	t := transition{start: time.Now()}
	fmt.Fprintf(os.Stderr, "%s transition %s\n", t.start.Format("15:04:05.000"), to)
	for _, slot := range []int{r.p.master, 1 - r.p.master} {
		out, err := mgmt.RequestTransition(ctx, r.ep, transport.Address(r.p.addr[slot]), "", to)
		if err != nil {
			return t, fmt.Errorf("transition %s on %s: %w", to, r.p.addr[slot], err)
		}
		t.outcomes = append(t.outcomes, mgmtOutcome{
			deploy: time.Duration(out.DeployUS) * time.Microsecond,
			script: time.Duration(out.ScriptUS) * time.Microsecond,
			remove: time.Duration(out.RemoveUS) * time.Microsecond,
		})
	}
	t.end = time.Now()
	r.p.ftm = string(to)
	return t, nil
}

// killMaster SIGKILLs the master, waits for the survivor to report
// itself master, restarts the killed daemon as its slave and waits until
// the survivor counts the peer restored.
func (r *runState) killMaster(ctx context.Context) (kill, error) {
	victim := r.p.master
	survivor := 1 - victim
	surv := r.p.d[survivor]
	before, err := surv.metrics()
	if err != nil {
		return kill{}, err
	}
	restored := before.sum("ftm_peer_restored_total")
	k := kill{at: time.Now()}
	fmt.Fprintf(os.Stderr, "%s kill %s\n", k.at.Format("15:04:05.000"), r.p.addr[victim])
	r.p.kill(victim)
	for {
		st, err := mgmt.QueryStatus(ctx, r.ep, transport.Address(r.p.addr[survivor]), "")
		if err == nil && st.Role == string(core.RoleMaster) {
			k.detected = time.Now()
			break
		}
		if err := pause(ctx, 2*time.Millisecond); err != nil {
			return k, fmt.Errorf("survivor never promoted: %w", err)
		}
	}
	r.p.master = survivor
	k.restarted = time.Now()
	fmt.Fprintf(os.Stderr, "%s promoted %s; restart %s\n", k.detected.Format("15:04:05.000"), r.p.addr[survivor], r.p.addr[victim])
	if err := r.p.spawn(ctx, victim, "slave"); err != nil {
		return k, fmt.Errorf("restart %s: %w", r.p.addr[victim], err)
	}
	for {
		s, err := surv.metrics()
		if err == nil && s.sum("ftm_peer_restored_total") > restored {
			k.rejoined = time.Now()
			return k, nil
		}
		if err := pause(ctx, 5*time.Millisecond); err != nil {
			return k, fmt.Errorf("restarted peer never restored: %w", err)
		}
	}
}

func pause(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

package monitor

// SLO probes bridge the slo engine's conclusions into the rule
// engine, the same way health probes bridge graded verdicts: sampled
// as plain floats so threshold rules, hysteresis and triggers compose
// unchanged. The probes take closures rather than the engine itself —
// monitor stays ignorant of slo's types, and tests feed synthetic
// readings.

// SLOBreachProbe samples 1 while paging() holds (the shard's fast
// windows burn above the page threshold) and 0 otherwise, so a rule
// `Above 0.5, Consecutive N` fires after N confirmed paging polls.
// Wire it with the slo engine's Paging method:
//
//	monitor.SLOBreachProbe("slo-page-0", func() bool { return eng.Paging("0") })
func SLOBreachProbe(name string, paging func() bool) Probe {
	return ProbeFunc{ProbeName: name, Fn: func() float64 {
		if paging() {
			return 1
		}
		return 0
	}}
}

// SLOBudgetProbe samples the remaining error-budget fraction while
// budget() reports a clean grade, and 0 otherwise, so a rule
// `Above B, Consecutive N` fires once the shard has stopped burning,
// holds at least B of its budget, and has stayed so for N polls — the
// recovery hysteresis. Wire it with the slo engine's Snapshot:
//
//	monitor.SLOBudgetProbe("slo-budget-0", func() (float64, bool) {
//		s, ok := eng.Snapshot("0")
//		return s.BudgetRemaining, ok && s.Grade == slo.GradeOK
//	})
func SLOBudgetProbe(name string, budget func() (remaining float64, clean bool)) Probe {
	return ProbeFunc{ProbeName: name, Fn: func() float64 {
		if remaining, clean := budget(); clean {
			return remaining
		}
		return 0
	}}
}

// BurnRateProbe samples an error-budget burn rate (1.0 = spending the
// budget exactly at the sustainable pace), for rules that want their
// own thresholds rather than the engine's page/warn grading. Wire it
// with the slo engine's Burn method.
func BurnRateProbe(name string, burn func() float64) Probe {
	return ProbeFunc{ProbeName: name, Fn: func() float64 { return burn() }}
}

package main

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// The helpers below are how experiments run simulations: they thread the
// environment's context (and with it the -timeout deadline) into every
// core entry point, so a stuck or oversized run aborts instead of hanging
// the whole regeneration.

func (env *environment) runOne(sys core.System, m core.Mechanism, w trace.Workload) (*engine.Result, error) {
	return core.RunOneContext(env.ctx, sys, m, w)
}

func (env *environment) runOneWithOptions(sys core.System, m core.Mechanism, w trace.Workload, o core.Options) (*engine.Result, error) {
	return core.RunOneWithOptionsContext(env.ctx, sys, m, w, o)
}

func (env *environment) runReplicated(sys core.System, m core.Mechanism, w trace.Workload, replicas int) (*core.Replicated, error) {
	return core.RunReplicatedContext(env.ctx, sys, m, w, replicas)
}

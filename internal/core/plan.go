package core

import (
	"time"

	"hypertensor/internal/symbolic"
	"hypertensor/internal/tensor"
)

// Plan is the immutable per-tensor analysis of a decomposition: the
// validated options, the symbolic update lists, the TTMc strategy
// choice, and the tensor norm. Everything in a Plan is a pure function
// of (tensor, options) and is never mutated afterwards, so one Plan can
// back any number of Engines — the resident handles that own the
// mutable factor state and ingest deltas. Decompose is NewPlan +
// NewEngine + Run.
type Plan struct {
	opts  Options
	x     *tensor.COO // the caller's tensor; engines clone before mutating
	sym   *symbolic.Structure
	normX float64

	useTree bool

	symbolicTime time.Duration
}

// NewPlan validates the options and performs the one-time symbolic
// setup for x: norm, per-mode update lists, and the TTMc strategy
// decision. x is not copied — it must not be mutated while plans or
// engines built from it are in use (engines clone it lazily before
// their first Update, so Engine.Update never mutates the caller's
// tensor).
func NewPlan(x *tensor.COO, optsIn Options) (*Plan, error) {
	if err := optsIn.Validate(x); err != nil {
		return nil, err
	}
	p := &Plan{opts: optsIn.withDefaults(), x: x}
	p.normX = x.Norm(p.opts.Threads)

	start := time.Now()
	p.sym = symbolic.Build(x, p.opts.Threads)
	// The dimension tree needs two modes to split; an order-1 tensor
	// runs the flat kernel under either strategy.
	p.useTree = p.opts.TTMc == TTMcDTree && x.Order() >= 2
	p.symbolicTime = time.Since(start)
	return p, nil
}

// Options returns a copy of the validated options (defaults applied).
func (p *Plan) Options() Options { return p.opts }

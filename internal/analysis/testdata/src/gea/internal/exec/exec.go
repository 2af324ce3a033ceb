// Package exec is the testdata stub of GEA's execution-governance
// layer: just enough surface (Ctl, Limits, Trace, the sentinels, Guard,
// Run)
// for the analyzer corpora to typecheck. The analyzers match these
// types by import-path suffix, so the stub living under
// testdata/src/gea/internal/exec is indistinguishable from the real
// package as far as they are concerned.
package exec

import (
	"context"
	"errors"

	"gea/internal/obs"
)

var ErrBudget = errors.New("exec: work budget exhausted")

type Limits struct {
	Budget     int64
	CheckEvery int64
	Workers    int
}

type Trace struct {
	Partial bool
	Reason  string
	Units   int64
}

type Ctl struct{ stopped error }

func New(ctx context.Context, lim Limits) *Ctl { return &Ctl{} }

func Background() *Ctl { return &Ctl{} }

func (c *Ctl) Point(n int64) error { return c.stopped }

func (c *Ctl) Err() error { return c.stopped }

func (c *Ctl) Exhausted() bool { return errors.Is(c.stopped, ErrBudget) }

func (c *Ctl) Snapshot(partial bool) Trace { return Trace{Partial: partial} }

func Guard(op, node string, fn func() error) error { return fn() }

func Run[R any](ctx context.Context, lim Limits, op, node string, fn func(*Ctl) (R, bool, error)) (R, Trace, error) {
	c := New(ctx, lim)
	r, partial, err := fn(c)
	return r, c.Snapshot(partial), err
}

func IsBudget(err error) bool { return errors.Is(err, ErrBudget) }

func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (c *Ctl) Workers() int { return 1 }

func (c *Ctl) Split(n int) []*Ctl { return make([]*Ctl, n) }

func (c *Ctl) SplitWork(counts []int64) []*Ctl { return make([]*Ctl, len(counts)) }

func (c *Ctl) Merge(kids ...*Ctl) {}

func (c *Ctl) StartSpan(op string) *obs.Span { return nil }

func (c *Ctl) EndSpan(sp *obs.Span, partial *bool, err *error) {}

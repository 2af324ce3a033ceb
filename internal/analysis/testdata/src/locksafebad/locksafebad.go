// Bad corpus for the locksafe analyzer: governed compute under a held
// mutex, and admission slots that can leak.
package locksafebad

import (
	"context"
	"sync"

	"gea/internal/core"
	"gea/internal/exec"
)

type System struct {
	mu    sync.Mutex
	count int
}

func (s *System) acquire(ctx context.Context) (func(), error) { return func() {}, nil }

// MineLocked holds the registry lock across the miner.
func (s *System) MineLocked(prefix string) ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, _, err := core.MineWith(exec.Background(), prefix) // want `call to governed operator core.MineWith while holding s.mu`
	return r, err
}

// RunLocked: an operator run under exec.Run is just as heavy, though
// the operator call itself sits in a function literal.
func (s *System) RunLocked(ctx context.Context, prefix string) ([]int, error) {
	s.mu.Lock()
	r, _, err := exec.Run(ctx, exec.Limits{}, "core.Mine", prefix, func(c *exec.Ctl) ([]int, bool, error) { // want `exec.Run call while holding s.mu`
		return core.MineWith(c, prefix)
	})
	s.mu.Unlock()
	return r, err
}

// GuardLocked runs guarded operator work under the lock.
func (s *System) GuardLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return exec.Guard("op", "node", func() error { return nil }) // want `exec.Guard call while holding s.mu`
}

// RWLocked: read locks serialise against writers just the same.
type RWSystem struct {
	mu sync.RWMutex
}

func (s *RWSystem) MineRLocked(prefix string) ([]int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, _, err := core.MineWith(exec.Background(), prefix) // want `call to governed operator core.MineWith while holding s.mu`
	return r, err
}

// Leak acquires a slot but never defers the release: a panic (or a
// forgotten path) between acquire and the manual release leaks it.
func (s *System) Leak(ctx context.Context) error {
	release, err := s.acquire(ctx) // want `admission slot from acquire is never released`
	if err != nil {
		return err
	}
	release()
	return nil
}

// EarlyReturn slips a return between the acquire and its defer.
func (s *System) EarlyReturn(ctx context.Context, bad bool) error {
	release, err := s.acquire(ctx)
	if err != nil {
		return err
	}
	if bad {
		return nil // want `return between acquire and .defer release\(\). leaks the admission slot`
	}
	defer release()
	return nil
}
